// The benchmark's workloads and their committed correctness references.
// Every workload is one sim::train() configuration: 4 rank threads, global
// batch 32, 10 Gbps TCP, per-tensor buckets, overlap off, no faults,
// controller or probes. README.md records why each one was chosen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/tasks.h"

namespace hostbench {

struct WorkloadSpec {
  std::string name;  // command-line name, e.g. "cnn-topk"
  grace::sim::Benchmark (*make_task)(double scale) = nullptr;  // sim::make_*
  std::string compressor;  // GraceConfig::compressor_spec
  // Committed references. Transport counts are exact: for none/topk/qsgd
  // the wire sizes do not depend on the gradient values, so they are the
  // same for every seed. The loss reference is the median, over --seed
  // 1-10, of a run's final_train_loss (the mean over its kSeedsPerRun
  // training seeds of the last epoch's mean loss); a run passes when its
  // loss lies within loss_tolerance (relative) of it.
  uint64_t comm_messages = 0;
  uint64_t comm_payload_bytes = 0;
  double reference_loss = 0.0;
  double loss_tolerance = 0.0;
};

// One run trains kSeedsPerRun seeds derived from --seed, in rotation, so
// its loss and throughput average over several inputs instead of riding on
// one initialization: the last-epoch loss of a single seed varies by 10-20%
// between seeds on cnn-topk and mlp-qsgd.
constexpr int kSeedsPerRun = 16;
inline uint64_t training_seed(uint64_t seed, int i) {
  return seed * kSeedsPerRun + static_cast<uint64_t>(i);
}

const std::vector<WorkloadSpec>& workloads();
// nullptr when no workload has that name.
const WorkloadSpec* find_workload(const std::string& name);

struct Task {
  grace::sim::Benchmark bench;
  grace::sim::TrainConfig cfg;
};

// Builds the workload's task: dataset synthesis (sim::make_*) and the
// training config, with `seed` as TrainConfig::seed. `scale` shrinks the
// dataset for tests; the benchmark always uses 1.0.
Task build_task(const WorkloadSpec& w, uint64_t seed, double scale = 1.0);

// Why one train() call counts as failed, or "" when it passed: replicas out
// of sync, a non-finite loss, transport counts that differ from the
// committed ones (recorded at scale 1.0), or a parameter CRC that differs
// from `expected_crc32` (the other repetitions' value).
std::string check_run(const grace::sim::RunResult& r, const WorkloadSpec& w,
                      uint32_t expected_crc32);

// The last epoch's mean training loss (NaN when the run has no epochs).
double final_train_loss(const grace::sim::RunResult& r);

// Whether a final loss lies within the workload's reference band.
bool loss_within_reference(double loss, const WorkloadSpec& w);

}  // namespace hostbench
