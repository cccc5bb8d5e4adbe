// Adaptive per-bucket compression controller (DESIGN.md §11).
//
// One Controller instance runs on EVERY rank, and all instances are
// identical by construction: they hold no randomness, and at each decision
// boundary the trainer feeds them the SAME signal vector — per-bucket
// fidelity windows summed across ranks with the deterministic ring
// allreduce, which is bit-identical on every rank. A Controller therefore
// never communicates itself; determinism is an invariant the trainer
// verifies after the run by comparing snapshots.
//
// Decision boundaries are epoch ends (always — the crash/resume hand-off
// depends on it) plus optional every-k-iteration points inside an epoch.
// Between boundaries nothing switches: a bucket's compressor is constant
// for every iteration of a window, so error feedback and compressor state
// see a stable operator.
//
// Signal windows are DIFFERENCES of the fidelity probe's monotonic totals
// between consecutive boundaries. That makes the window at boundary t a
// function of iterations since boundary t-1 only, which is what lets a
// resumed run (TrainConfig::start_epoch + ControlConfig::resume_state)
// replay the original decision tail exactly: both runs see identical
// windows at every post-resume boundary.
//
// The decision rule is hysteresis over arms ordered lightest (index 0) to
// heaviest: a sustained fidelity breach steps one arm LIGHTER (less
// compression, more faithful gradients), a sustained comfortable margin
// steps one arm HEAVIER, and a window in the band between the two resets
// both streaks, so a window hovering at a threshold never flaps the arm.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "control/config.h"

namespace grace::control {

// One verdict, recorded at every boundary for every bucket (stays
// included — the log is the full decision history, not just the switches).
struct ControlDecision {
  int boundary = 0;     // 0-based boundary index within the run
  int epoch = 0;        // epoch the boundary closed
  int64_t iter = -1;    // iteration within the epoch, -1 = epoch end
  int bucket = 0;       // bucket id (index into the plan)
  std::string bucket_name;
  int from_arm = 0;
  int to_arm = 0;       // == from_arm when the bucket stays put
  std::string signal;   // what triggered the verdict ("cosine<floor", ...)
};

// What a run reports back (RunResult::control).
struct ControlSummary {
  bool enabled = false;
  std::vector<std::string> arms;
  int boundaries = 0;
  int switches = 0;
  std::vector<ControlDecision> decisions;
  // Final arm per bucket, index-aligned with the bucket plan.
  std::vector<int> final_arms;
  std::vector<std::string> bucket_names;
  // Controller::snapshot() at run end: feed into ControlConfig::resume_state
  // to continue the decision sequence in a resumed run.
  std::string state;
};

class Controller {
 public:
  // Signal layout: kSignalsPerBucket floats per bucket, in bucket-plan
  // order. The trainer fills one slice per bucket from the fidelity
  // probe's totals, allreduce-sums the whole vector, then calls step().
  //   [0] samples   [1] sum cosine      [2] sum sign-agreement
  //   [3] sum residual_l2   [4] sum grad_l2
  //   [5] sum wire_bits     [6] sum dense_bits
  // The rule reads no wire bits; slot [5] stays because the vector's
  // length sets the allreduce's chunk boundaries, and so each element's
  // float summation order.
  static constexpr size_t kSignalsPerBucket = 7;

  // `bucket_names` must be the bucket-plan names in plan order; they key
  // the snapshot's identity check (resuming against a different bucket
  // plan is a config error, not a silent misassignment). Throws
  // std::invalid_argument when cfg.resume_state is set but does not match
  // this run's arms/bucket plan.
  Controller(const ControlConfig& cfg, std::vector<std::string> bucket_names);

  size_t n_buckets() const { return bucket_names_.size(); }
  size_t signal_size() const { return n_buckets() * kSignalsPerBucket; }

  const std::string& arm_spec(size_t bucket) const {
    return cfg_.arms[static_cast<size_t>(arms_now_[bucket])];
  }

  // Run one decision boundary over the cross-rank-aggregated signal vector
  // (size must equal signal_size()). Appends one decision per bucket to the
  // log and returns copies of the buckets that SWITCHED (the trainer
  // re-routes those buckets' compressors). `epoch`/`iter` label the log
  // entries only.
  std::vector<ControlDecision> step(std::span<const float> signals, int epoch,
                                    int64_t iter);

  int boundaries() const { return boundaries_; }

  // Serialized controller state: arm assignments, streaks and the
  // boundary/switch counters. Byte-deterministic; equal across ranks iff
  // the decision sequences were equal (the trainer asserts this). Does NOT
  // include the decision log — a resumed run's log contains only its own
  // tail, matching the original run's entries for the same boundaries.
  std::string snapshot() const;

  // Summary for RunResult; includes snapshot() as .state.
  ControlSummary summary() const;

 private:
  // Consecutive boundaries whose window breached a threshold (`worse`) or
  // cleared every threshold by the band (`better`).
  struct Streaks {
    int worse = 0;
    int better = 0;
  };

  // The hysteresis rule for bucket `b` over its aggregated window (one
  // kSignalsPerBucket slice): the bucket's next arm and what triggered it.
  // Advances or resets the bucket's streaks.
  std::pair<int, std::string> decide(size_t b, const float* window);
  void restore(const std::string& state);

  ControlConfig cfg_;
  std::vector<std::string> bucket_names_;
  std::vector<int> arms_now_;
  std::vector<Streaks> streaks_;  // index-aligned with arms_now_
  int boundaries_ = 0;
  int switches_ = 0;
  std::vector<ControlDecision> decisions_;
};

// Deterministic JSON for the decision log / summary (util/json.h escaping)
// — byte-identical across runs with equal decisions.
std::string control_decisions_json(const std::vector<ControlDecision>& d);
std::string control_summary_json(const ControlSummary& s);

}  // namespace grace::control
