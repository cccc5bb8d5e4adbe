// The shadow loop: a harness-side re-implementation of sim::train()'s
// fault-free iteration loop that times each call into a layer's public
// functions and keeps the spans in memory. It runs the same arithmetic in
// the same order as train() (same seeds, same bucket order, same
// check_sync allreduce), so its final parameters are bit-identical to
// train()'s for the same config; the benchmark checks that before it
// trusts a span total.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/trainer.h"

namespace hostbench {

// The layer boundary a span covers.
enum class Layer : uint8_t {
  Build,            // replica + GraceWorker + optimizer construction (models)
  ForwardBackward,  // zero_grad + DistributedModel::forward_backward (models)
  Evaluate,         // DistributedModel::evaluate on rank 0 (models)
  Submit,           // ExchangeScheduler::submit_bucket: EF, Q, wire (core)
  Wait,             // GraceWorker::wait: collective + decompress (comm, core)
  Apply,            // ExchangeScheduler::apply_bucket -> Optimizer (optim)
  Sync,             // epoch-end check_sync allreduce (comm)
};

struct Span {
  Layer layer = Layer::Build;
  int32_t iter = -1;           // run-global iteration index, -1 outside one
  int64_t start_ns = 0;        // from the start of run_shadow
  int64_t dur_ns = 0;
  double decompress_s = 0.0;   // Wait: ExchangeStats::decompress_seconds
  uint64_t wire_bytes = 0;     // Submit: the payload's logical wire bytes
};

struct ShadowResult {
  std::vector<std::vector<Span>> spans;  // per rank; empty when untraced
  std::vector<uint32_t> rank_crc32;      // each rank's final parameters
  bool ranks_identical = false;          // every rank_crc32 is equal
  bool replicas_in_sync = true;          // every check_sync passed
  uint32_t parameters_crc32 = 0;         // rank 0's (same as train()'s)
  uint64_t comm_messages = 0;            // World transport counters
  uint64_t comm_payload_bytes = 0;
  int64_t iterations = 0;                // per rank
  int64_t samples = 0;                   // global training samples
  int64_t dense_bytes_per_iter = 0;      // fp32 gradient bytes per rank
  double final_train_loss = 0.0;         // rank 0, last epoch mean
  double wall_s = 0.0;                   // host seconds for the whole call
  int64_t wall_ns = 0;                   // the same, on the spans' clock
};

// Runs the training loop for `cfg`. Only the configurations the benchmark
// uses are supported; anything that needs train()'s fault, membership,
// controller, probe, fleet or overlap machinery throws
// std::invalid_argument. With `spans` false no span is recorded (the
// untraced baseline for the tracing overhead).
ShadowResult run_shadow(const grace::sim::ReplicaFactory& factory,
                        const grace::sim::TrainConfig& cfg, bool spans);

// Per-layer figures over one or more traced shadow-loop runs: each figure is
// the median across runs of that run's per-rank-iteration mean, and the
// sample vectors pool every run. Times are per rank per iteration
// (milliseconds); the ranks run concurrently, so the per-layer times of
// one rank add up to the iteration's wall time.
struct LayerSummary {
  int64_t rank_iterations = 0;
  std::vector<double> forward_backward_ms;  // one sample per (rank, iter)
  std::vector<double> rank_skew_ms;         // one sample per iteration
  double build_ms = 0.0;
  double forward_backward_mean_ms = 0.0;
  double evaluate_ms = 0.0;
  double join_wait_ms = 0.0;   // finished ranks waiting for rank 0's evaluate
  double submit_ms = 0.0;
  double decompress_ms = 0.0;
  double collective_ms = 0.0;  // Wait minus decompress, plus Sync
  double apply_ms = 0.0;
  double wire_bytes_per_iter = 0.0;

  double models_ms() const {
    return build_ms + forward_backward_mean_ms + evaluate_ms + join_wait_ms;
  }
  double core_ms() const { return submit_ms + decompress_ms; }
  double comm_ms() const { return collective_ms; }
  double optim_ms() const { return apply_ms; }
  // Everything the spans cover; the rest of the loop's time is its own
  // glue (batch slicing, span bookkeeping, thread start-up).
  double covered_ms() const {
    return models_ms() + core_ms() + comm_ms() + optim_ms();
  }
};

LayerSummary summarize(std::span<const ShadowResult> runs);

}  // namespace hostbench
