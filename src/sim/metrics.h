// Result records produced by the distributed trainer; the benchmark
// binaries print these as the paper's tables/figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.h"
#include "faults/counters.h"
#include "sim/critical_path.h"
#include "sim/fidelity.h"
#include "sim/metric_registry.h"

namespace grace::sim {

struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;        // mean worker-0 loss over the epoch
  double quality = 0.0;           // task metric after this epoch
  double epoch_sim_seconds = 0.0; // simulated duration of this epoch
  double cum_sim_seconds = 0.0;   // simulated time since training start
};

// Mean per-iteration seconds by phase (the trace taxonomy of sim/trace.h).
// By construction forward + backward == compute, compress + decompress ==
// the slowest worker's compression overhead, so total_s() equals the
// simulated iteration time exactly under the additive accounting
// (TimeModel::overlap == false, the default). With overlap enabled the
// iteration time comes from the exchange-pipeline critical path instead,
// so total_s() exceeds RunResult::iteration_s by the overlapped portion.
struct PhaseBreakdown {
  double forward_s = 0.0;     // simulated device compute, forward pass
  double backward_s = 0.0;    // simulated device compute, backward pass
  double compress_s = 0.0;    // measured Q + fixed per-tensor overhead
  double comm_s = 0.0;        // simulated collective time
  double decompress_s = 0.0;  // measured Q^-1 over received payloads
  double optimizer_s = 0.0;   // simulated device time of the update step
  double stall_s = 0.0;       // slowest rank's simulated fault stall
                              // (retries + stragglers); 0 without a plan

  double total_s() const {
    return forward_s + backward_s + compress_s + comm_s + decompress_s +
           optimizer_s + stall_s;
  }
};

// Rank-0 totals for one fusion bucket across the whole run (populated only
// when the run was traced). At fusion_bytes == 0 a bucket is a single
// gradient tensor under its own name; larger caps summarize per bucket
// ("fused" / "bucket<id>", see sim/scheduler.h).
struct TensorTraceSummary {
  std::string name;
  int64_t numel = 0;
  int64_t exchanges = 0;      // number of exchanges (wait() calls)
  double compress_s = 0.0;
  double comm_s = 0.0;
  double decompress_s = 0.0;
  uint64_t wire_bytes = 0;    // total logical bytes transmitted
};

struct RunResult {
  std::string model;
  std::string compressor;
  std::string quality_metric;
  // Communication topology the run used (comm::TopologyConfig::to_string():
  // "ring", "ps(shards=k)", "hierarchical(rack=m)", ...).
  std::string topology;
  bool error_feedback = false;

  std::vector<EpochRecord> epochs;
  double best_quality = 0.0;   // best seen across epochs (paper methodology)
  double final_quality = 0.0;

  // Steady-state global throughput (samples/sec over the last iterations).
  double throughput = 0.0;
  // Mean logical bytes transmitted per iteration by one worker.
  double wire_bytes_per_iter = 0.0;

  // Mean per-iteration totals that `phases` splits (seconds): compute_s is
  // forward + backward, and compress_s the full compression overhead
  // (compress + local/peer decompress + fixed per-tensor cost), taken as
  // the slowest worker per iteration. The other phases live in `phases`
  // only.
  double compute_s = 0.0;
  double compress_s = 0.0;
  double total_sim_seconds = 0.0;

  // Mean simulated iteration seconds. Equals phases.total_s() under the
  // additive accounting; under TimeModel::overlap it is the mean pipeline
  // critical path (max over alive ranks of the exchange-timeline end, plus
  // optimizer and the slowest rank's fault stall).
  double iteration_s = 0.0;
  // Mean seconds per iteration the overlap timeline saved against the
  // additive model (0 when overlap is off), and that saving as a fraction
  // of the additive iteration time.
  double overlap_saved_s = 0.0;
  double overlap_fraction = 0.0;
  // Fusion buckets the scheduler exchanges per iteration
  // (TrainConfig::fusion_bytes endpoints: gradient_tensors at 0, 1 at
  // SIZE_MAX).
  int64_t buckets_per_iter = 0;
  // Which accounting priced iteration_s (TimeModel::overlap), recorded so
  // report consumers can compare like with like.
  bool overlap_enabled = false;

  // Critical-path attribution + what-if re-pricings (sim/critical_path.h);
  // populated (collected == true) when TrainConfig::critical_path is set.
  CriticalPathSummary critical_path;

  // Finer-grained view of the same accounting: mean per-iteration seconds
  // split across the six trace phases (always populated; phases.total_s()
  // is the mean simulated iteration time under additive accounting).
  PhaseBreakdown phases;
  // Per-bucket rank-0 totals; populated when TrainConfig::trace is set.
  std::vector<TensorTraceSummary> tensor_trace;
  // Simulated fault stall per physical rank (seconds, one entry per rank
  // of TrainConfig::n_workers), summed over the iterations the rank ran;
  // the run report's straggler detector compares them.
  std::vector<double> rank_stall_s;

  // Compression-fidelity aggregates (sim/fidelity.h), merged across ranks;
  // populated when TrainConfig::fidelity is set, empty otherwise.
  std::vector<TensorFidelitySummary> fidelity;
  // Exchange-level distributions (sim/metric_registry.h), merged across
  // ranks; populated when TrainConfig::metrics is set, empty otherwise.
  std::vector<HistogramSnapshot> metric_histograms;

  // Epoch sample accounting: iterations only cover whole global batches, so
  // train_size % (n_workers * batch_per_worker) samples are dropped from
  // every epoch (0 when the dataset divides evenly). When the dataset is
  // *smaller* than one global batch, sampling wraps around instead and
  // samples_per_epoch exceeds the dataset size.
  int64_t samples_per_epoch = 0;
  int64_t samples_dropped_per_epoch = 0;

  // Physical transport counters: messages/payload bytes actually pushed
  // through the in-process mailboxes by all ranks (collective internals
  // included — distinct from the logical wire_bytes accounting).
  uint64_t comm_messages = 0;
  uint64_t comm_payload_bytes = 0;

  int64_t model_parameters = 0;
  int64_t gradient_tensors = 0;
  bool replicas_in_sync = true;

  // Adaptive-controller outcome (src/control, DESIGN.md §11): the full
  // decision log, final per-bucket arm assignments, and the serialized
  // controller state for resuming. enabled == false (the default) when the
  // run had no controller.
  control::ControlSummary control;

  // Resilience accounting (src/faults); all-zero when no FaultPlan was
  // installed.
  faults::FaultCounters faults;
  // Rank 0's flattened parameter values at run end, plus their CRC32: the
  // cheap handle for "two runs produced identical final weights" checks
  // (the JSON export carries only the CRC).
  std::vector<float> final_parameters;
  uint32_t parameters_crc32 = 0;
};

}  // namespace grace::sim
