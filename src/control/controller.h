// Adaptive per-bucket compression controller (DESIGN.md §11).
//
// One Controller instance runs on EVERY rank, and all instances are
// identical by construction: they are seeded from the run seed (never the
// rank), and at each decision boundary the trainer feeds them the SAME
// signal vector — per-bucket fidelity windows summed across ranks with the
// deterministic ring allreduce, which is bit-identical on every rank. A
// Controller therefore never communicates itself; determinism is an
// invariant the trainer verifies after the run by comparing snapshots.
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
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "control/config.h"
#include "tensor/rng.h"

namespace grace::control {

// Per-bucket signal window between two consecutive decision boundaries,
// aggregated across all live ranks (means weighted by sample count).
struct WindowStats {
  double samples = 0.0;          // fidelity samples in the window, all ranks
  double cosine = 1.0;           // mean cosine(compensated, reconstructed)
  double sign_agreement = 1.0;   // mean elementwise sign agreement
  double residual_rel = 0.0;     // sum residual_l2 / sum grad_l2
  double wire_share = 0.0;       // sum wire_bits / sum dense_bits
  double compression_ratio = 1.0;  // sum dense_bits / sum wire_bits
  // Dense payload of one exchange of this bucket (numel * 32): the size
  // signal behind ControlConfig::cheap_bits.
  double dense_bits_per_sample = 0.0;
};

// One policy verdict, recorded at every boundary for every bucket (stays
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
  std::string policy;
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

// Strategy interface: given one bucket's aggregated window, pick its next
// arm. Implementations keep per-bucket internal state (streaks, bandit
// statistics) that must round-trip through serialize/restore — the
// crash/resume contract covers policy state, not just arm assignments.
class ControlPolicy {
 public:
  struct Verdict {
    int arm = 0;
    std::string signal;
  };

  virtual ~ControlPolicy() = default;
  virtual const char* name() const = 0;
  virtual Verdict decide(size_t bucket, int current_arm,
                         const WindowStats& w) = 0;

  // Per-bucket opaque state token for snapshots. Must not contain the
  // characters ';' or '|' (snapshot field separators). `boundaries` is the
  // snapshot's boundary count, which bounds every per-bucket counter (each
  // boundary advances at most one by one); restore throws
  // std::invalid_argument on a malformed or out-of-range token.
  virtual std::string serialize_bucket(size_t bucket) const = 0;
  virtual void restore_bucket(size_t bucket, const std::string& token,
                              int64_t boundaries) = 0;
  // Uniform draws consumed so far (bandit only); replayed on restore.
  virtual uint64_t rng_draws() const { return 0; }
  virtual void replay_rng(uint64_t draws);
};

// Factory (also used directly by tests to unit-drive a policy).
std::unique_ptr<ControlPolicy> make_policy(const ControlConfig& cfg,
                                           size_t n_buckets, size_t n_arms,
                                           uint64_t run_seed);

class Controller {
 public:
  // Signal layout: kSignalsPerBucket floats per bucket, in bucket-plan
  // order. The trainer fills one slice per bucket from the fidelity
  // probe's totals, allreduce-sums the whole vector, then calls step().
  //   [0] samples   [1] sum cosine      [2] sum sign-agreement
  //   [3] sum residual_l2   [4] sum grad_l2
  //   [5] sum wire_bits     [6] sum dense_bits
  static constexpr size_t kSignalsPerBucket = 7;

  // `bucket_names` must be the bucket-plan names in plan order; they key
  // the snapshot's identity check (resuming against a different bucket
  // plan is a config error, not a silent misassignment). Throws
  // std::invalid_argument when cfg.resume_state is set but does not match
  // this run's policy/arms/bucket plan.
  Controller(const ControlConfig& cfg, std::vector<std::string> bucket_names,
             uint64_t run_seed);

  size_t n_buckets() const { return bucket_names_.size(); }
  size_t signal_size() const { return n_buckets() * kSignalsPerBucket; }

  const std::string& arm_spec(size_t bucket) const {
    return cfg_.arms[static_cast<size_t>(arms_now_[bucket])];
  }

  // Run one decision boundary over the cross-rank-aggregated signal vector
  // (size must equal signal_size()). Appends one decision per bucket to the
  // log and returns references to the buckets that SWITCHED (the trainer
  // re-routes those buckets' compressors and applies the residual-carry
  // policy to them). `epoch`/`iter` label the log entries only.
  std::vector<ControlDecision> step(std::span<const float> signals, int epoch,
                                    int64_t iter);

  int boundaries() const { return boundaries_; }

  // Serialized controller state: arm assignments, policy state, RNG
  // position, boundary/switch counters. Byte-deterministic; equal across
  // ranks iff the decision sequences were equal (the trainer asserts this).
  // Does NOT include the decision log — a resumed run's log contains only
  // its own tail, matching the original run's entries for the same
  // boundaries.
  std::string snapshot() const;

  // Summary for RunResult; includes snapshot() as .state.
  ControlSummary summary() const;

 private:
  void restore(const std::string& state);

  ControlConfig cfg_;
  std::vector<std::string> bucket_names_;
  std::unique_ptr<ControlPolicy> policy_;
  std::vector<int> arms_now_;
  int boundaries_ = 0;
  int switches_ = 0;
  std::vector<ControlDecision> decisions_;
};

// Decode one bucket's slice of the aggregated signal vector into means.
WindowStats window_from_signals(const float* s);

// Deterministic JSON for the decision log / summary (json_util.h escaping,
// max_digits10 doubles) — byte-identical across runs with equal decisions.
std::string control_decisions_json(const std::vector<ControlDecision>& d);
std::string control_summary_json(const ControlSummary& s);

}  // namespace grace::control
