// Critical-path attribution for one training run (docs/OBSERVABILITY.md
// §4): the analysis layer over the scheduler's codec-in/link/codec-out
// timeline (sim/scheduler.h) and the phase accounting. It answers two
// questions the raw telemetry cannot:
//
//   1. "What bounded this run?" — every iteration's wall-clock is
//      attributed to exactly one ledger of binding resources: device
//      compute / backward readiness ramp, codec (compress + decompress),
//      link occupancy, optimizer step, and fault stall. The honesty
//      contract is that the attributed seconds of an iteration sum
//      *bitwise-exactly* to what the trainer charged for it
//      (IterationAttribution::attributed_total() == iteration_s), so the
//      ledger can never quietly over- or under-explain a run.
//
//   2. "What would fixing it buy?" — deterministic what-if re-pricings of
//      the same closed-form timeline: infinite bandwidth (comm stages cost
//      zero), free codec (compress/decompress cost zero), zero fault
//      stalls, and perfect overlap (no backward readiness ramp; every
//      bucket's gradients ready at iteration start). A what-if never
//      re-measures anything: it re-runs schedule_buckets on transformed
//      stage durations, so predictions are pure functions of the recorded
//      run and never fall below the max(compute, link-occupancy) bound.
//
// Collection is opt-in via TrainConfig::critical_path, like the trace and
// metrics layers: the collector is filled by train() after the join from
// its per-rank log; a null pointer skips the attribution entirely.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace grace::sim {

// The resources an iteration's wall-clock is attributed to.
enum class Resource : uint8_t {
  Compute = 0,  // simulated device compute, incl. the backward readiness
                // ramp that gates the first critical-chain bucket
  Codec,        // compress + decompress stages on the critical chain
  Link,         // simulated link occupancy on the critical chain
  Optimizer,    // simulated parameter-update step
  Stall,        // simulated fault stall (retries + stragglers)
};
inline constexpr size_t kNumResources = 5;

const char* resource_name(Resource r);

// The per-iteration ledger. Under additive accounting the categories are
// the phase sums themselves; under TimeModel::overlap they come from a
// backward walk of the binding rank's bucket schedule: the critical chain
// from iteration start to pipeline drain is partitioned into consecutive
// segments, each charged to the resource that owned it. Floating-point
// reassociation when the interleaved chain segments are regrouped into
// category sums can leave an ulp-scale residue; attribute_iteration folds
// that residue into the binding category so attributed_total() closes the
// ledger exactly.
struct IterationAttribution {
  double compute_s = 0.0;
  double codec_s = 0.0;
  double link_s = 0.0;
  double optimizer_s = 0.0;
  double stall_s = 0.0;
  // What the trainer charged this iteration (reconstructed bitwise from
  // the same inputs the trainer priced).
  double iteration_s = 0.0;
  // The largest category — "what bounded this iteration".
  Resource binding = Resource::Compute;

  // The five categories summed like an additive charge (sim/scheduler.h);
  // bitwise equal to iteration_s by construction (the honesty contract,
  // pinned in tests/test_critical_path.cc).
  double attributed_total() const {
    return additive_charge(compute_s, codec_s, link_s, optimizer_s, stall_s);
  }
};

// The binding-rank view of one iteration, assembled from the
// IterationCharge it was priced with (sim/scheduler.h).
struct IterationCosts {
  // The binding rank's per-bucket stage durations (empty on skipped
  // rounds). Only consulted under overlap accounting and by the pipeline
  // what-ifs.
  std::span<const BucketTiming> timings;
  double compute_s = 0.0;    // simulated forward + backward
  double codec_s = 0.0;      // additive: the charge's codec split (the
                             // rank with the largest codec overhead)
  double comm_s = 0.0;       // additive: simulated collective time
  double optimizer_s = 0.0;
  double stall_s = 0.0;      // slowest rank's simulated fault stall
};

// Attributes one iteration. `overlap` selects the accounting the trainer
// used (TimeModel::overlap): additive phase sums, or the critical chain
// through schedule_buckets(timings, compute_s, true).
IterationAttribution attribute_iteration(const IterationCosts& costs,
                                         bool overlap);

// Folds the floating-point reassociation residue between iteration_s and
// the category sums back into the categories until attributed_total()
// equals iteration_s bitwise (the honesty contract). Used by
// attribute_iteration and by the collector when it averages the ledger.
void close_ledger(IterationAttribution& a);

// Deterministic what-if scenarios: re-price the closed-form timeline with
// one resource idealized.
enum class Scenario : uint8_t {
  InfiniteBandwidth = 0,  // every comm stage costs zero
  FreeCodec,              // every compress/decompress stage costs zero
  ZeroStall,              // fault stalls removed
  PerfectOverlap,         // overlap pricing with no readiness ramp
};
inline constexpr std::array<Scenario, 4> kScenarios = {
    Scenario::InfiniteBandwidth, Scenario::FreeCodec, Scenario::ZeroStall,
    Scenario::PerfectOverlap};

const char* scenario_name(Scenario s);

// Re-prices one iteration under `scenario`. `rank_timings` holds every
// alive rank's bucket timings for the iteration (the scenario pipeline is
// priced per rank and the slowest rank binds, mirroring the trainer);
// `overlap` is the run's accounting mode. Scalar scenarios on additive
// runs re-price the additive sum; pipeline scenarios (and every scenario
// on an overlap run) re-run schedule_buckets on transformed durations.
// The result never falls below max(compute_s, scenario link occupancy) +
// optimizer_s.
double reprice_iteration(
    const IterationCosts& costs,
    const std::vector<std::span<const BucketTiming>>& rank_timings,
    bool overlap, Scenario scenario);

struct WhatIfResult {
  std::string name;          // scenario_name()
  double iteration_s = 0.0;  // mean re-priced iteration seconds
  double speedup = 1.0;      // measured mean iteration_s / re-priced mean
};

// The run-level roll-up surfaced in RunResult::critical_path.
struct CriticalPathSummary {
  bool collected = false;
  int64_t iterations = 0;
  // Mean attributed seconds per iteration; mean.iteration_s is bitwise
  // equal to RunResult::iteration_s (same values, same summation order).
  // mean.binding is the resource that bound the most iterations.
  IterationAttribution mean;
  // How many iterations each resource bound, indexed by Resource.
  std::array<int64_t, kNumResources> bound_iters{};
  // The full per-iteration ledger, in iteration order.
  std::vector<IterationAttribution> per_iteration;
  // One entry per kScenarios member, in that order.
  std::vector<WhatIfResult> what_ifs;
};

// Accumulates one run's ledger and rolls it up. train() feeds it after the
// worker threads have joined, one iteration at a time in iteration order,
// from its per-rank log. One collector serves one run: train() rejects a
// collector that already holds iterations.
class CriticalPathCollector {
 public:
  explicit CriticalPathCollector(int n_ranks);

  int n_ranks() const { return n_ranks_; }
  // Iterations attributed so far.
  int64_t iterations() const {
    return static_cast<int64_t>(summary_.per_iteration.size());
  }

  // Attributes one iteration priced under `overlap` accounting and
  // re-prices it under every scenario. `rank_timings` holds the alive
  // ranks' bucket timings in the order `charge` folded them (its binding
  // index points into it; skipped rounds have no buckets).
  void add(const IterationCharge& charge, double optimizer_s,
           const std::vector<std::span<const BucketTiming>>& rank_timings,
           bool overlap);

  // The run-level roll-up: mean ledger (closed bitwise onto the mean
  // iteration), binding tallies and what-if means. collected stays false
  // while no iteration was added.
  CriticalPathSummary summary() const;

 private:
  int n_ranks_;
  CriticalPathSummary summary_;  // per_iteration and bound_iters so far
  IterationAttribution sum_;     // category and iteration sums
  std::array<double, kScenarios.size()> whatif_sum_{};
};

// JSON object for the summary ({"collected":...,"attribution":{...},
// "what_if":[...]}); shared by run_report_json and the tests.
std::string critical_path_json(const CriticalPathSummary& s);

}  // namespace grace::sim
