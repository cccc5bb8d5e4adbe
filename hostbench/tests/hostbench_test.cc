// Tests for the benchmark harness itself: order statistics, workload
// construction, the per-operation failure rules, and the shadow loop's
// equivalence with sim::train().
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "shadow.h"
#include "stats.h"
#include "workloads.h"

namespace hostbench {
namespace {

TEST(Stats, QuantilesInterpolateLinearly) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  // Quartiles 2 and 4 around a median of 3.
  EXPECT_NEAR(iqr_pct(v), 200.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(iqr_pct({0.0, 0.0}), 0.0);
}

TEST(Workloads, NamesAndReferencesAreSet) {
  ASSERT_EQ(workloads().size(), 3u);
  for (const WorkloadSpec& w : workloads()) {
    EXPECT_EQ(find_workload(w.name), &w);
    EXPECT_GT(w.comm_messages, 0u) << w.name;
    EXPECT_GT(w.comm_payload_bytes, 0u) << w.name;
    EXPECT_GT(w.reference_loss, 0.0) << w.name;
    EXPECT_GT(w.loss_tolerance, 0.0) << w.name;
    EXPECT_LT(w.loss_tolerance, 1.0) << w.name;
  }
  EXPECT_EQ(find_workload("no-such-workload"), nullptr);
}

TEST(Workloads, TaskMatchesTheBenchmarkContract) {
  for (const WorkloadSpec& w : workloads()) {
    const Task t = build_task(w, /*seed=*/17, /*scale=*/0.1);
    EXPECT_EQ(t.cfg.n_workers, 4);
    EXPECT_EQ(t.cfg.net.n_workers, 4);
    EXPECT_EQ(t.cfg.n_workers * t.cfg.batch_per_worker, 32);
    EXPECT_EQ(t.cfg.fusion_bytes, 0u);
    EXPECT_FALSE(t.cfg.time.overlap);
    EXPECT_EQ(t.cfg.seed, 17u);
    EXPECT_EQ(t.cfg.epochs, 1);
    EXPECT_EQ(t.cfg.grace.compressor_spec, w.compressor);
    EXPECT_EQ(t.cfg.faults, nullptr);
    EXPECT_FALSE(t.cfg.grace.control.enabled());
  }
}

TEST(Workloads, CheckRunClassifiesFailures) {
  const WorkloadSpec& w = workloads().front();
  grace::sim::RunResult r;
  r.replicas_in_sync = true;
  r.epochs.push_back({.epoch = 0, .train_loss = w.reference_loss});
  r.parameters_crc32 = 7;
  r.comm_messages = w.comm_messages;
  r.comm_payload_bytes = w.comm_payload_bytes;
  EXPECT_EQ(check_run(r, w, 7), "");
  EXPECT_TRUE(loss_within_reference(final_train_loss(r), w));

  grace::sim::RunResult bad = r;
  bad.replicas_in_sync = false;
  EXPECT_NE(check_run(bad, w, 7), "");
  bad = r;
  bad.epochs.back().train_loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(check_run(bad, w, 7), "");
  EXPECT_FALSE(loss_within_reference(final_train_loss(bad), w));
  EXPECT_NE(check_run(r, w, 8), "");
  bad = r;
  bad.comm_messages += 1;
  EXPECT_NE(check_run(bad, w, 7), "");
  EXPECT_FALSE(loss_within_reference(
      w.reference_loss * (1.0 + 2.0 * w.loss_tolerance), w));
}

// The shadow loop must reproduce train() bit for bit — parameters, transport
// counts and loss — or its span totals describe a different computation.
TEST(Shadow, ReproducesTrainOnEveryWorkload) {
  for (const WorkloadSpec& w : workloads()) {
    const Task t = build_task(w, /*seed=*/3, /*scale=*/0.1);
    const grace::sim::RunResult r = grace::sim::train(t.bench.factory, t.cfg);
    for (const bool spans : {false, true}) {
      const ShadowResult d = run_shadow(t.bench.factory, t.cfg, spans);
      EXPECT_TRUE(d.ranks_identical) << w.name;
      EXPECT_TRUE(d.replicas_in_sync) << w.name;
      EXPECT_EQ(d.parameters_crc32, r.parameters_crc32) << w.name;
      EXPECT_EQ(d.comm_messages, r.comm_messages) << w.name;
      EXPECT_EQ(d.comm_payload_bytes, r.comm_payload_bytes) << w.name;
      EXPECT_EQ(d.samples, r.samples_per_epoch * t.cfg.epochs) << w.name;
      EXPECT_DOUBLE_EQ(d.final_train_loss, final_train_loss(r)) << w.name;
      for (const auto& rank_spans : d.spans) {
        EXPECT_EQ(rank_spans.empty(), !spans) << w.name;
      }
    }
  }
}

TEST(Shadow, SummaryCoversEveryLayer) {
  const WorkloadSpec& w = *find_workload("mlp-qsgd");
  const Task t = build_task(w, /*seed=*/5, /*scale=*/0.1);
  std::vector<ShadowResult> runs;
  runs.push_back(run_shadow(t.bench.factory, t.cfg, true));
  runs.push_back(run_shadow(t.bench.factory, t.cfg, true));
  const LayerSummary s = summarize(runs);
  const int64_t ranks = t.cfg.n_workers;
  EXPECT_EQ(s.rank_iterations, 2 * runs[0].iterations * ranks);
  EXPECT_EQ(static_cast<int64_t>(s.forward_backward_ms.size()),
            s.rank_iterations);
  EXPECT_EQ(static_cast<int64_t>(s.rank_skew_ms.size()),
            2 * runs[0].iterations);
  EXPECT_GT(s.forward_backward_mean_ms, 0.0);
  EXPECT_GT(s.submit_ms, 0.0);
  EXPECT_GT(s.decompress_ms, 0.0);
  EXPECT_GT(s.apply_ms, 0.0);
  EXPECT_GT(s.wire_bytes_per_iter, 0.0);
  EXPECT_LT(s.wire_bytes_per_iter,
            static_cast<double>(runs[0].dense_bytes_per_iter));
  // The spans sit inside the loop's wall time, per rank.
  const double wall_ms_per_iter =
      (runs[0].wall_s + runs[1].wall_s) * 1e3 /
      static_cast<double>(2 * runs[0].iterations);
  EXPECT_LE(s.covered_ms(), wall_ms_per_iter * 1.01);
}

TEST(Shadow, RejectsConfigurationsItDoesNotModel) {
  const Task t = build_task(workloads().front(), 1, 0.1);
  grace::sim::TrainConfig cfg = t.cfg;
  cfg.time.overlap = true;
  EXPECT_THROW(run_shadow(t.bench.factory, cfg, false), std::invalid_argument);
}

}  // namespace
}  // namespace hostbench
