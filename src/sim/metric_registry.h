// Lock-free per-rank metrics: named monotonic counters and log2-bucketed
// histograms. PhaseBreakdown reports *means*, which hide the tail — the
// registry keeps full per-exchange latency and message-size distributions
// so p50/p99/max survive aggregation. The registry is filled by train()
// after the join from its per-rank log; only the adaptive controller's
// control.* counters are written mid-run, each by its own rank's worker
// thread into that rank's slot, so recording takes no locks and no
// atomics. The merged cross-rank views (counters(), histograms()) are
// deterministic — ranks are folded in ascending order, output sorted by
// metric name — and must only be read after train() returns.
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

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

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

  // Record on behalf of `rank`; at most one thread per rank at a time.
  void inc(int rank, std::string_view name, uint64_t delta = 1);
  void observe(int rank, std::string_view name, double value);

  // Deterministic cross-rank merges, sorted by name.
  std::vector<CounterSnapshot> counters() const;
  std::vector<HistogramSnapshot> histograms() const;
  // Single-rank view (same sort, no merge): the health detectors compare
  // per-rank series against the fleet (sim/report.h). Same read-after-run
  // discipline as the merged views.
  std::vector<HistogramSnapshot> histograms(int rank) const;

  int n_ranks() const { return static_cast<int>(ranks_.size()); }

 private:
  struct Counter {
    std::string name;
    uint64_t value = 0;
  };
  struct Hist {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<uint64_t, kHistogramBuckets> buckets{};
  };
  // Cache-line separation between rank slots: ranks record concurrently.
  struct alignas(64) RankSlot {
    std::vector<Counter> counters;  // first-use order; linear lookup (few)
    std::vector<Hist> hists;
  };

  std::vector<RankSlot> ranks_;
};

// JSON object {"counters":[...],"histograms":[...]} with per-histogram
// p50/p99 and sparse [bucket, count] pairs. Shared by run_result_json,
// bench_fidelity and the tests.
std::string metrics_json(const std::vector<CounterSnapshot>& counters,
                         const std::vector<HistogramSnapshot>& histograms);

}  // namespace grace::sim
