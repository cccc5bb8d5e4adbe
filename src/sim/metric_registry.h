// Per-rank metric distributions: log2-bucketed histograms. PhaseBreakdown
// reports *means*, which hide the tail — the registry keeps full
// per-exchange latency and message-size distributions so p50/p99/max
// survive aggregation. It holds distributions only: a count or a total is
// a histogram's own count or sum. Only train()'s fold writes it, after the
// join, from the per-rank priced record; read it after train() returns.
// The merged cross-rank view (histograms()) is deterministic — ranks are
// folded in ascending order, output sorted by metric name.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace grace::sim {

inline constexpr int kHistogramBuckets = 64;

// Bucket index of a sample: 0 holds v < 1 (and everything non-positive),
// bucket i >= 1 holds [2^(i-1), 2^i), the last bucket is open-ended.
// Samples are recorded in integral units (nanoseconds, bytes) so bucket 0
// means "below resolution".
int histogram_bucket(double v);
// Representative value of a bucket (geometric midpoint of its range; 0.5
// for bucket 0), the inverse used by percentile estimation.
double histogram_bucket_value(int bucket);

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // exact extremes (not bucket-quantized)
  double max = 0.0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  // Bucket-resolution quantile estimate for q in [0, 1]: the geometric
  // midpoint of the bucket containing the q-th sample, clamped to the
  // exact [min, max] envelope. q=0 -> min, q=1 -> max.
  double percentile(double q) const;

  // Count-weighted absorption of another snapshot of the same metric: the
  // result describes the pooled sample set exactly (bucket counts add,
  // envelopes widen), so merging a rank that died after 5 observations
  // into one that made 10000 cannot skew percentiles the way averaging
  // per-rank quantiles would. Either side may be empty (count == 0).
  void merge(const HistogramSnapshot& other);
};

class MetricRegistry {
 public:
  explicit MetricRegistry(int n_ranks);

  // Add one sample to `rank`'s histogram `name`.
  void observe(int rank, std::string_view name, double value);

  // Deterministic cross-rank merge, sorted by name.
  std::vector<HistogramSnapshot> histograms() const;

  int n_ranks() const { return static_cast<int>(ranks_.size()); }

 private:
  // Each rank's histograms in first-use order (linear lookup: a handful).
  std::vector<std::vector<HistogramSnapshot>> ranks_;
};

}  // namespace grace::sim
