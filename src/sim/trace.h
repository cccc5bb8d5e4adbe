// Run-level observability (DESIGN.md §8): trace events with phase tags
// for the forward/backward pass, each fusion bucket's exchange (compress /
// comm / decompress) and the optimizer step. The trace is filled by
// train() after the join from its per-rank log, each rank's events in the
// order they happened, and keeps every event. Tracing is opt-in via
// TrainConfig::trace — when unset the trainer records nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace grace::sim {

struct RunResult;

// The phase taxonomy: where one training iteration's time goes.
//   Forward/Backward — simulated device compute (TimeModel)
//   Compress         — measured kernel CPU time + fixed per-tensor overhead
//   Comm             — simulated collective time (NetworkModel)
//   Decompress       — measured kernel CPU time over received payloads
//   Optimizer        — simulated device time of the parameter update
//   Fault            — simulated stall injected by the fault subsystem
//                      (retry timeouts, retransmits, straggler delays);
//                      present only when a FaultPlan is installed
enum class Phase : uint8_t {
  Forward = 0,
  Backward,
  Compress,
  Comm,
  Decompress,
  Optimizer,
  Fault,
};
inline constexpr size_t kNumPhases = 7;

const char* phase_name(Phase p);

struct TraceEvent {
  int32_t epoch = 0;
  int32_t iter = 0;    // iteration within the epoch
  int16_t rank = 0;
  Phase phase = Phase::Forward;
  int32_t tensor = -1;  // fusion-bucket id (sim/scheduler.h); -1 = iteration
                        // scope
  double seconds = 0.0;
  uint64_t bytes = 0;  // logical wire bytes (Comm events only)
  // Absolute start of this span within its iteration on the simulated
  // exchange timeline (seconds from iteration start), or -1 when the event
  // has no simulated placement — consumers then lay events out
  // sequentially in recorded order. Bucket Compress/Comm/Decompress events
  // carry real starts, which is what makes compute/comm overlap visible in
  // the Chrome export.
  double start_s = -1.0;
};

// Per-rank TraceEvent lists. Not synchronized: one thread records at a
// time (train() does, after its join).
class Trace {
 public:
  explicit Trace(int n_ranks);

  void record(int rank, const TraceEvent& ev);

  // Every recorded event, oldest-first within each rank, ranks
  // concatenated.
  std::vector<TraceEvent> events() const;

  int n_ranks() const { return static_cast<int>(ranks_.size()); }

 private:
  std::vector<std::vector<TraceEvent>> ranks_;
};

// JSON serialization (no external deps; used by bench_e2e and the smoke
// test). run_result_json covers the per-phase breakdown, wire/byte
// accounting, and the per-tensor trace summaries of one run.
std::string run_result_json(const RunResult& r);

}  // namespace grace::sim
