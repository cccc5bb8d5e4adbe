// Critical-path attribution (sim/critical_path.h): hand-built chain walks
// against the scheduler's tie semantics, what-if re-pricing identities,
// and — the headline acceptance test — the honesty contract over real
// training runs: per-iteration attributed seconds sum bitwise-exactly to
// RunResult::iteration_s across compressors x topologies x fault plans,
// under both accounting modes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "comm/topology.h"
#include "faults/fault_plan.h"
#include "sim/critical_path.h"
#include "sim/tasks.h"
#include "util/json.h"

namespace grace::sim {
namespace {

Benchmark tiny_cnn() { return make_cnn_classification(0.1); }

TrainConfig tiny_config(const Benchmark& b, int workers = 4) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = workers;
  cfg.net.n_workers = workers;
  cfg.epochs = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Unit: attribute_iteration on hand-built timelines. Stage durations are
// dyadic rationals so every intermediate sum is exact and the expected
// category charges can be asserted bitwise, residue-free.

TEST(CriticalPath, AdditiveAttributionIsThePhaseLedger) {
  IterationCosts costs;
  costs.compute_s = 0.375;
  costs.codec_s = 0.25;
  costs.comm_s = 0.75;
  costs.optimizer_s = 0.0625;
  costs.stall_s = 0.03125;
  const IterationAttribution a = attribute_iteration(costs, /*overlap=*/false);
  EXPECT_EQ(a.compute_s, costs.compute_s);
  EXPECT_EQ(a.codec_s, costs.codec_s);
  EXPECT_EQ(a.link_s, costs.comm_s);
  EXPECT_EQ(a.optimizer_s, costs.optimizer_s);
  EXPECT_EQ(a.stall_s, costs.stall_s);
  EXPECT_EQ(a.iteration_s, 0.375 + 0.25 + 0.75 + 0.0625 + 0.03125);
  EXPECT_EQ(a.attributed_total(), a.iteration_s);
  EXPECT_EQ(a.binding, Resource::Link);
}

TEST(CriticalPath, OverlapLinkBoundChain) {
  // One bucket, comm dominates: the chain is ramp -> compress -> link ->
  // decompress with no idle gaps, so every segment lands in its own
  // category exactly.
  const std::vector<BucketTiming> t = {{0.5, 0.25, 2.0, 0.125}};
  IterationCosts costs;
  costs.timings = t;
  costs.compute_s = 1.0;  // pipeline (2.875) outlasts compute
  costs.optimizer_s = 0.0625;
  const IterationAttribution a = attribute_iteration(costs, /*overlap=*/true);
  EXPECT_EQ(a.compute_s, 0.5);    // the readiness ramp gating the bucket
  EXPECT_EQ(a.codec_s, 0.375);    // compress + decompress
  EXPECT_EQ(a.link_s, 2.0);
  EXPECT_EQ(a.optimizer_s, 0.0625);
  EXPECT_EQ(a.iteration_s, 2.875 + 0.0625);
  EXPECT_EQ(a.attributed_total(), a.iteration_s);
  EXPECT_EQ(a.binding, Resource::Link);
}

TEST(CriticalPath, OverlapComputeBoundIterationChargesCompute) {
  // The exchange pipeline (end 1.5) hides entirely under compute (10.0):
  // the whole pipe is compute's, no codec/link charges.
  const std::vector<BucketTiming> t = {{0.5, 0.25, 0.5, 0.25}};
  IterationCosts costs;
  costs.timings = t;
  costs.compute_s = 10.0;
  costs.optimizer_s = 0.25;
  const IterationAttribution a = attribute_iteration(costs, /*overlap=*/true);
  EXPECT_EQ(a.compute_s, 10.0);
  EXPECT_EQ(a.codec_s, 0.0);
  EXPECT_EQ(a.link_s, 0.0);
  EXPECT_EQ(a.iteration_s, 10.25);
  EXPECT_EQ(a.attributed_total(), a.iteration_s);
  EXPECT_EQ(a.binding, Resource::Compute);
}

TEST(CriticalPath, OverlapCodecSerializationChain) {
  // Two buckets serialize on the codec-in resource: b1's compress waits on
  // b0's (not on the link), so the backward walk crosses buckets through
  // the Compress stage and charges both compress stages to Codec.
  //   b0: compress [0, 1],   comm [1, 1.25],  dec [1.25, 1.5]
  //   b1: compress [1, 2],   comm [2, 2.25],  dec [2.25, 2.5]
  const std::vector<BucketTiming> t = {{0.0, 1.0, 0.25, 0.25},
                                       {0.0, 1.0, 0.25, 0.25}};
  IterationCosts costs;
  costs.timings = t;
  costs.compute_s = 0.5;
  const IterationAttribution a = attribute_iteration(costs, /*overlap=*/true);
  EXPECT_EQ(a.compute_s, 0.0);   // b0 was ready at iteration start
  EXPECT_EQ(a.codec_s, 2.25);    // b0.compress + b1.compress + b1.dec
  EXPECT_EQ(a.link_s, 0.25);     // b1.comm
  EXPECT_EQ(a.iteration_s, 2.5);
  EXPECT_EQ(a.attributed_total(), a.iteration_s);
  EXPECT_EQ(a.binding, Resource::Codec);
}

TEST(CriticalPath, OverlapLinkSerializationChain) {
  // Two buckets serialize on the link: b1's comm waits for b0's comm to
  // drain, so the walk crosses buckets through the Comm stage and both
  // comm stages land in Link.
  //   b0: compress [0, 0.25],    comm [0.25, 1.25],  dec [1.25, 1.5]
  //   b1: compress [0.25, 0.5],  comm [1.25, 2.25],  dec [2.25, 2.5]
  const std::vector<BucketTiming> t = {{0.0, 0.25, 1.0, 0.25},
                                       {0.0, 0.25, 1.0, 0.25}};
  IterationCosts costs;
  costs.timings = t;
  costs.compute_s = 0.5;
  const IterationAttribution a = attribute_iteration(costs, /*overlap=*/true);
  EXPECT_EQ(a.compute_s, 0.0);
  EXPECT_EQ(a.codec_s, 0.5);   // b0.compress + b1.dec
  EXPECT_EQ(a.link_s, 2.0);    // both comm stages
  EXPECT_EQ(a.iteration_s, 2.5);
  EXPECT_EQ(a.attributed_total(), a.iteration_s);
  EXPECT_EQ(a.binding, Resource::Link);
}

TEST(CriticalPath, SkippedRoundIsComputePlusStall) {
  IterationCosts costs;
  costs.compute_s = 2.0;
  costs.stall_s = 0.5;
  costs.optimizer_s = 0.25;
  const IterationAttribution a = attribute_iteration(costs, /*overlap=*/true);
  EXPECT_EQ(a.compute_s, 2.0);
  EXPECT_EQ(a.codec_s, 0.0);
  EXPECT_EQ(a.link_s, 0.0);
  EXPECT_EQ(a.stall_s, 0.5);
  EXPECT_EQ(a.iteration_s, 2.75);
  EXPECT_EQ(a.attributed_total(), a.iteration_s);
}

// ---------------------------------------------------------------------------
// Unit: what-if re-pricing on the same hand-built timeline.

TEST(CriticalPath, WhatIfRepricesTheClosedFormTimeline) {
  const std::vector<BucketTiming> t = {{0.5, 0.25, 2.0, 0.125}};
  IterationCosts costs;
  costs.timings = t;
  costs.compute_s = 1.0;
  costs.optimizer_s = 0.0625;
  costs.stall_s = 0.25;
  const std::vector<std::span<const BucketTiming>> ranks = {t};

  // Measured overlap iteration: pipe 2.875 + optimizer + stall.
  const double measured = 2.875 + 0.0625 + 0.25;

  // Infinite bandwidth: comm -> 0, pipe = max(compute, 0.5+0.25+0.125) =
  // compute; the compute floor binds.
  EXPECT_EQ(reprice_iteration(costs, ranks, true, Scenario::InfiniteBandwidth),
            1.0 + 0.0625 + 0.25);
  // Free codec: compress/dec -> 0, pipe = ramp + comm = 2.5.
  EXPECT_EQ(reprice_iteration(costs, ranks, true, Scenario::FreeCodec),
            2.5 + 0.0625 + 0.25);
  // Zero stall: same pipe, stall dropped.
  EXPECT_EQ(reprice_iteration(costs, ranks, true, Scenario::ZeroStall),
            2.875 + 0.0625);
  // Perfect overlap: ramp -> 0, pipe = max(compute, 0.25 + 2.0 + 0.125).
  EXPECT_EQ(reprice_iteration(costs, ranks, true, Scenario::PerfectOverlap),
            2.375 + 0.0625 + 0.25);

  for (Scenario s : kScenarios) {
    const double w = reprice_iteration(costs, ranks, true, s);
    // Never below the compute + optimizer bound, never above measured.
    EXPECT_GE(w, costs.compute_s + costs.optimizer_s) << scenario_name(s);
    EXPECT_LE(w, measured) << scenario_name(s);
  }
}

TEST(CriticalPath, WhatIfOnAdditiveRunsRepricesTheSum) {
  const std::vector<BucketTiming> t = {{0.5, 0.25, 2.0, 0.125}};
  IterationCosts costs;
  costs.timings = t;
  costs.compute_s = 1.0;
  costs.codec_s = 0.375;
  costs.comm_s = 2.0;
  costs.optimizer_s = 0.0625;
  costs.stall_s = 0.25;
  const std::vector<std::span<const BucketTiming>> ranks = {t};
  const double additive = ((((1.0 + 0.375) + 2.0) + 0.0625) + 0.25);

  // Scalar scenarios zero one term of the additive sum.
  EXPECT_EQ(reprice_iteration(costs, ranks, false, Scenario::InfiniteBandwidth),
            additive - 2.0);
  EXPECT_EQ(reprice_iteration(costs, ranks, false, Scenario::FreeCodec),
            additive - 0.375);
  EXPECT_EQ(reprice_iteration(costs, ranks, false, Scenario::ZeroStall),
            additive - 0.25);
  // Perfect overlap prices the pipeline instead — never more than the
  // additive sum, never less than compute + optimizer.
  const double po =
      reprice_iteration(costs, ranks, false, Scenario::PerfectOverlap);
  EXPECT_EQ(po, 2.375 + 0.0625 + 0.25);
  EXPECT_LE(po, additive);
  EXPECT_GE(po, costs.compute_s + costs.optimizer_s);
}

// ---------------------------------------------------------------------------
// The collector holds one run's ledger.

TEST(CriticalPath, TrainRejectsAReusedCollector) {
  // A second train() into the same collector would roll two runs into one
  // ledger whose mean no longer closes onto either run's iteration_s, so it
  // is refused on the caller's thread.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.epochs = 1;
  CriticalPathCollector collector(cfg.n_workers);
  cfg.critical_path = &collector;
  const RunResult first = train(b.factory, cfg);
  EXPECT_EQ(collector.iterations(), first.critical_path.iterations);
  EXPECT_THROW(train(b.factory, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Integration: the honesty contract over real training runs.

// Asserts the full contract on one finished run.
void expect_honest(const RunResult& run, const std::string& what) {
  SCOPED_TRACE(what);
  const CriticalPathSummary& cp = run.critical_path;
  ASSERT_TRUE(cp.collected);
  ASSERT_GT(cp.iterations, 0);
  ASSERT_EQ(static_cast<size_t>(cp.iterations), cp.per_iteration.size());

  // 1. Honesty: every iteration's ledger closes bitwise, and the mean
  //    ledger closes bitwise onto RunResult::iteration_s.
  for (size_t i = 0; i < cp.per_iteration.size(); ++i) {
    const IterationAttribution& a = cp.per_iteration[i];
    ASSERT_EQ(a.attributed_total(), a.iteration_s) << "iteration " << i;
    ASSERT_GE(a.iteration_s, 0.0);
  }
  EXPECT_EQ(cp.mean.attributed_total(), cp.mean.iteration_s);
  EXPECT_EQ(cp.mean.iteration_s, run.iteration_s);

  // 2. Binding tallies partition the iterations.
  int64_t bound_total = 0;
  for (int64_t n : cp.bound_iters) bound_total += n;
  EXPECT_EQ(bound_total, cp.iterations);

  // 3. What-ifs: one per scenario, in kScenarios order; re-pricing never
  //    falls below the compute + optimizer bound and (except the pipeline
  //    re-pricing of an additive run, which swaps accounting models) never
  //    exceeds the measured iteration.
  ASSERT_EQ(cp.what_ifs.size(), kScenarios.size());
  for (size_t i = 0; i < cp.what_ifs.size(); ++i) {
    const WhatIfResult& w = cp.what_ifs[i];
    EXPECT_EQ(w.name, scenario_name(kScenarios[i]));
    EXPECT_GT(w.iteration_s, 0.0) << w.name;
    EXPECT_GE(w.iteration_s, run.compute_s + run.phases.optimizer_s - 1e-12)
        << w.name;
    const bool swaps_accounting =
        !run.overlap_enabled && kScenarios[i] == Scenario::PerfectOverlap;
    if (!swaps_accounting) {
      EXPECT_LE(w.iteration_s, run.iteration_s * (1.0 + 1e-9)) << w.name;
      EXPECT_GE(w.speedup, 1.0 - 1e-9) << w.name;
    }
    EXPECT_EQ(w.speedup, run.iteration_s / w.iteration_s) << w.name;
  }

  // 4. The JSON form parses and carries the summary's sections.
  const std::string json = critical_path_json(cp);
  const util::json::Value doc = util::json::parse(json);
  for (const char* key : {"collected", "iterations", "attribution",
                          "bound_iterations", "what_if"}) {
    EXPECT_NO_THROW(doc.at(key)) << key;
  }
  EXPECT_NO_THROW(doc.at("attribution").at("binding"));
}

RunResult run_with_collector(const Benchmark& b, TrainConfig cfg) {
  CriticalPathCollector collector(cfg.n_workers);
  cfg.critical_path = &collector;
  return train(b.factory, cfg);
}

TEST(CriticalPathIntegration, HonestAcrossCompressorsAndAccountingModes) {
  Benchmark b = tiny_cnn();
  for (const char* spec : {"none", "topk(0.01)", "qsgd(64)"}) {
    for (bool overlap : {false, true}) {
      TrainConfig cfg = tiny_config(b);
      cfg.grace.compressor_spec = spec;
      cfg.time.overlap = overlap;
      const RunResult run = run_with_collector(b, cfg);
      EXPECT_EQ(run.overlap_enabled, overlap);
      expect_honest(run, std::string(spec) + (overlap ? "/overlap" : "/additive"));
    }
  }
}

TEST(CriticalPathIntegration, HonestAcrossTopologies) {
  Benchmark b = tiny_cnn();
  for (const bool overlap : {false, true}) {
    {
      TrainConfig cfg = tiny_config(b);
      cfg.grace.compressor_spec = "topk(0.01)";
      cfg.grace.topology.kind = comm::TopologyKind::ParameterServer;
      cfg.grace.topology.ps_shards = 2;
      cfg.time.overlap = overlap;
      expect_honest(run_with_collector(b, cfg),
                    overlap ? "ps/overlap" : "ps/additive");
    }
    {
      TrainConfig cfg = tiny_config(b);
      cfg.grace.compressor_spec = "topk(0.01)";
      cfg.grace.topology.kind = comm::TopologyKind::Hierarchical;
      cfg.grace.topology.ranks_per_rack = 2;
      cfg.time.overlap = overlap;
      expect_honest(run_with_collector(b, cfg),
                    overlap ? "hier/overlap" : "hier/additive");
    }
  }
}

TEST(CriticalPathIntegration, HonestUnderFaults) {
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.seed = 11;
  spec.drop_prob = 0.05;
  spec.straggler_prob = 1.0;
  spec.straggler_rank = 1;
  spec.straggler_delay_s = 5e-3;
  const faults::FaultPlan plan(spec);
  for (const bool overlap : {false, true}) {
    TrainConfig cfg = tiny_config(b);
    cfg.grace.compressor_spec = "topk(0.01)";
    cfg.faults = &plan;
    cfg.time.overlap = overlap;
    const RunResult run = run_with_collector(b, cfg);
    EXPECT_GT(run.faults.straggler_events, 0u);
    expect_honest(run, overlap ? "faults/overlap" : "faults/additive");
    // A permanent straggler must show up in the ledger.
    EXPECT_GT(run.critical_path.mean.stall_s, 0.0);
  }
}

TEST(CriticalPathIntegration, HonestAcrossACrash) {
  // Rank 2 dies mid-run; the survivors' iterations must still close the
  // ledger (the binding-rank scan skips dead ranks).
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.crash_rank = 2;
  spec.crash_epoch = 0;
  spec.crash_iter = 2;
  const faults::FaultPlan plan(spec);
  for (const bool overlap : {false, true}) {
    TrainConfig cfg = tiny_config(b);
    cfg.epochs = 2;
    cfg.faults = &plan;
    cfg.time.overlap = overlap;
    const RunResult run = run_with_collector(b, cfg);
    EXPECT_EQ(run.faults.crashed_ranks, 1u);
    expect_honest(run, overlap ? "crash/overlap" : "crash/additive");
  }
}

TEST(CriticalPathIntegration, StallBoundIterationsUnderPermanentStraggler) {
  // With a 50 ms straggler on every iteration of a sub-millisecond task,
  // the stall category must bind every iteration and the zero-stall
  // what-if must predict a large win.
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.straggler_prob = 1.0;
  spec.straggler_rank = 1;
  spec.straggler_delay_s = 0.05;
  const faults::FaultPlan plan(spec);
  TrainConfig cfg = tiny_config(b);
  cfg.faults = &plan;
  const RunResult run = run_with_collector(b, cfg);
  expect_honest(run, "big-straggler");
  const CriticalPathSummary& cp = run.critical_path;
  EXPECT_EQ(cp.mean.binding, Resource::Stall);
  EXPECT_EQ(cp.bound_iters[static_cast<size_t>(Resource::Stall)],
            cp.iterations);
  const WhatIfResult& zero_stall =
      cp.what_ifs[static_cast<size_t>(Scenario::ZeroStall)];
  EXPECT_GT(zero_stall.speedup, 2.0);
}

}  // namespace
}  // namespace grace::sim
