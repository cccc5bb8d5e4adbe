// HistogramSnapshot edge cases (percentile estimation, count-weighted
// merge) and the MetricRegistry's merged cross-rank view: the aggregation
// layer behind the exchange histograms (RunResult::metric_histograms), so
// the boundary behaviour — empty snapshots, single samples, q at the ends
// of [0, 1], skewed merges — is pinned here.
#include <gtest/gtest.h>

#include <vector>

#include "sim/metric_registry.h"

namespace grace::sim {
namespace {

// Builds a snapshot through the real recording path so the bucket layout
// matches what a run produces.
HistogramSnapshot snap(const std::vector<double>& samples) {
  if (samples.empty()) return HistogramSnapshot{};
  MetricRegistry reg(1);
  for (double v : samples) reg.observe(0, "h", v);
  return reg.histograms().at(0);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  const HistogramSnapshot h = snap({});
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.mean(), 0.0);
  // Quantiles of an empty distribution are 0 for every q, ends included.
  for (double q : {0.0, 0.25, 0.5, 1.0}) {
    EXPECT_EQ(h.percentile(q), 0.0) << "q=" << q;
  }
}

TEST(Histogram, SingleSampleIsItsOwnDistribution) {
  const HistogramSnapshot h = snap({42.0});
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.min, 42.0);
  EXPECT_EQ(h.max, 42.0);
  EXPECT_EQ(h.mean(), 42.0);
  // The bucket midpoint would quantize 42 -> ~45.25; the [min, max] clamp
  // must collapse every quantile onto the one sample exactly.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), 42.0) << "q=" << q;
  }
}

TEST(Histogram, EndpointQuantilesAreExactExtremes) {
  const HistogramSnapshot h = snap({3.0, 700.0, 1.0e6});
  // q=0 and q=1 bypass bucket quantization entirely.
  EXPECT_EQ(h.percentile(0.0), 3.0);
  EXPECT_EQ(h.percentile(1.0), 1.0e6);
  // Out-of-range q clamps to the ends instead of indexing out of bounds.
  EXPECT_EQ(h.percentile(-0.5), 3.0);
  EXPECT_EQ(h.percentile(2.0), 1.0e6);
}

TEST(Histogram, QuantilesAreMonotoneAndInsideTheEnvelope) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i * i));
  const HistogramSnapshot h = snap(samples);
  double prev = h.percentile(0.0);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    EXPECT_GE(p, h.min);
    EXPECT_LE(p, h.max);
    prev = p;
  }
}

TEST(Histogram, MergeIsCountWeighted) {
  // 999 samples at 1.0 vs one sample at 1e6: pooling must keep the median
  // with the mass. Averaging per-side quantiles instead would report
  // ~(1 + 1e6) / 2 — the failure mode merge() exists to prevent.
  HistogramSnapshot a = snap(std::vector<double>(999, 1.0));
  const HistogramSnapshot b = snap({1.0e6});
  a.merge(b);
  EXPECT_EQ(a.count, 1000u);
  EXPECT_EQ(a.sum, 999.0 + 1.0e6);
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, 1.0e6);
  // The pooled median sits in the unit bucket (midpoint < 2), nowhere near
  // the outlier; the outlier still owns the top of the distribution.
  EXPECT_LT(a.percentile(0.5), 2.0);
  EXPECT_EQ(a.percentile(1.0), 1.0e6);
}

TEST(Histogram, MergeWithEmptyIsIdentityBothWays) {
  const HistogramSnapshot full = snap({5.0, 10.0, 20.0});

  // empty.merge(full) == full.
  HistogramSnapshot into_empty;
  into_empty.merge(full);
  EXPECT_EQ(into_empty.count, full.count);
  EXPECT_EQ(into_empty.sum, full.sum);
  EXPECT_EQ(into_empty.min, full.min);
  EXPECT_EQ(into_empty.max, full.max);
  EXPECT_EQ(into_empty.buckets, full.buckets);

  // full.merge(empty) leaves full untouched — in particular the empty
  // side's zero min must not clobber the envelope.
  HistogramSnapshot unchanged = full;
  unchanged.merge(HistogramSnapshot{});
  EXPECT_EQ(unchanged.count, full.count);
  EXPECT_EQ(unchanged.sum, full.sum);
  EXPECT_EQ(unchanged.min, full.min);
  EXPECT_EQ(unchanged.max, full.max);
  EXPECT_EQ(unchanged.buckets, full.buckets);
}

TEST(Histogram, MergeWidensTheEnvelope) {
  HistogramSnapshot a = snap({5.0, 10.0});
  const HistogramSnapshot b = snap({1.0, 100.0});
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, 100.0);
}

TEST(Registry, MergedViewPoolsEveryRank) {
  MetricRegistry reg(2);
  reg.observe(0, "latency_ns", 10.0);
  reg.observe(1, "latency_ns", 1000.0);
  reg.observe(1, "latency_ns", 2000.0);
  reg.observe(1, "bytes", 64.0);

  // One snapshot per name, sorted, each pooling every rank's samples.
  const auto merged = reg.histograms();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].name, "bytes");
  EXPECT_EQ(merged[0].count, 1u);
  EXPECT_EQ(merged[1].name, "latency_ns");
  EXPECT_EQ(merged[1].count, 3u);
  EXPECT_EQ(merged[1].sum, 3010.0);
  EXPECT_EQ(merged[1].min, 10.0);
  EXPECT_EQ(merged[1].max, 2000.0);
}

}  // namespace
}  // namespace grace::sim
