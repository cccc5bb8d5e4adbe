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
// Every iteration ends a decision boundary, and so does every epoch (the
// crash/resume hand-off aligns on epoch ends). Between boundaries nothing
// switches, so error feedback and compressor state see a stable operator
// for at least one exchange.
//
// Signal windows are DIFFERENCES of the fidelity probe's monotonic totals
// between consecutive boundaries. That makes the window at boundary t a
// function of iterations since boundary t-1 only, which is what lets a
// resumed run (TrainConfig::start_epoch + ControlConfig::resume_state)
// replay the original decision tail exactly: both runs see identical
// windows at every post-resume boundary.
//
// The rule is a one-way ratchet over arms ordered lightest (index 0) to
// heaviest. Every bucket starts on the heaviest arm. A bucket whose window
// mean cosine sits under kCosineFloor at kPatience consecutive boundaries
// steps one arm lighter (less compression, more faithful gradients); a
// window at or above the floor resets the streak, so a window hovering at
// the floor never switches. A bucket whose dense payload is under
// kCheapBits pins to arm 0 at its first sampled boundary: compressing it
// buys no measurable wire time but pays the full fidelity cost (biases and
// small early layers are the classic case). Nothing ever steps heavier.
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
  // The ratchet's constants: the window mean cosine a bucket must reach,
  // the consecutive breaching boundaries that step it one arm lighter, and
  // the dense payload (numel * 32 bits) under which it pins to arm 0.
  static constexpr double kCosineFloor = 0.60;
  static constexpr int kPatience = 2;
  static constexpr double kCheapBits = 20000.0;

  // Signal layout: kSignalsPerBucket floats per bucket, in bucket-plan
  // order. The trainer fills one slice per bucket from the fidelity
  // probe's totals, allreduce-sums the whole vector, then calls step().
  //   [0] samples   [1] sum cosine
  static constexpr size_t kSignalsPerBucket = 2;

  // `bucket_names` and `bucket_numels` describe the bucket plan in plan
  // order. The names key the snapshot's identity check (resuming against a
  // different bucket plan is a config error, not a silent misassignment);
  // the sizes decide which buckets are cheap. Throws std::invalid_argument
  // when the arm set is empty, the two lists differ in length, or
  // cfg.resume_state is set but does not match this run's arms/bucket plan.
  Controller(const ControlConfig& cfg, std::vector<std::string> bucket_names,
             const std::vector<int64_t>& bucket_numels);

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

  // Serialized controller state, one JSON object:
  //   {"schema":"grace.control.v4","names_crc":<u32>,"arms_crc":<u32>,
  //    "arms":<count>,"boundaries":<n>,"switches":<n>,
  //    "buckets":[[<arm>,<breaches>],...]}
  // with one [arm, breach streak] pair per bucket in plan order. The CRCs
  // identify the bucket plan and the arm set. Byte-deterministic; equal
  // across ranks iff the decision sequences were equal (the trainer asserts
  // this). Does NOT include the decision log — a resumed run's log contains
  // only its own tail, matching the original run's entries for the same
  // boundaries. The constructor reads it back through util/json.h and
  // throws std::invalid_argument on another schema, plan or arm set, or on
  // a count outside what the run could have reached (boundaries in
  // [0, INT_MAX], switches at most boundaries x buckets, streaks at most
  // boundaries, arms inside the arm set).
  std::string snapshot() const;

  // Summary for RunResult; includes snapshot() as .state.
  ControlSummary summary() const;

 private:
  // The ratchet for bucket `b` over its aggregated window (one
  // kSignalsPerBucket slice): the bucket's next arm and what triggered it.
  // Advances or resets the bucket's breach streak.
  std::pair<int, std::string> decide(size_t b, const float* window);
  void restore(const std::string& state);

  ControlConfig cfg_;
  std::vector<std::string> bucket_names_;
  std::vector<bool> cheap_;       // index-aligned with the bucket plan
  std::vector<int> arms_now_;
  std::vector<int> breaches_;     // consecutive breaching boundaries
  int boundaries_ = 0;
  int switches_ = 0;
  std::vector<ControlDecision> decisions_;
};

// Deterministic JSON for the decision log / summary (util/json.h escaping)
// — byte-identical across runs with equal decisions.
std::string control_decisions_json(const std::vector<ControlDecision>& d);
std::string control_summary_json(const ControlSummary& s);

}  // namespace grace::control
