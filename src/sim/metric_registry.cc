#include "sim/metric_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace grace::sim {

int histogram_bucket(double v) {
  if (!(v >= 1.0)) return 0;  // non-positive and NaN land in bucket 0
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1) => floor(log2 v) = exp - 1
  return std::min(exp, kHistogramBuckets - 1);
}

double histogram_bucket_value(int bucket) {
  if (bucket <= 0) return 0.5;
  // Geometric midpoint of [2^(b-1), 2^b).
  return std::ldexp(std::sqrt(2.0), bucket - 1);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
}

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;  // the envelope extremes are tracked exactly
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count - 1);
  uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[static_cast<size_t>(b)];
    if (static_cast<double>(seen) > target) {
      return std::clamp(histogram_bucket_value(b), min, max);
    }
  }
  return max;
}

namespace {

std::vector<HistogramSnapshot> sorted_by_name(std::vector<HistogramSnapshot> v) {
  std::sort(v.begin(), v.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return v;
}

}  // namespace

MetricRegistry::MetricRegistry(int n_ranks)
    : ranks_(static_cast<size_t>(n_ranks)) {
  assert(n_ranks >= 1);
}

void MetricRegistry::observe(int rank, std::string_view name, double value) {
  std::vector<HistogramSnapshot>& hists = ranks_.at(static_cast<size_t>(rank));
  const auto it =
      std::find_if(hists.begin(), hists.end(),
                   [&](const HistogramSnapshot& h) { return h.name == name; });
  HistogramSnapshot& h = it != hists.end() ? *it : hists.emplace_back();
  if (h.count == 0) {  // just created: every histogram holds a sample
    h.name = name;
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[static_cast<size_t>(histogram_bucket(value))];
}

std::vector<HistogramSnapshot> MetricRegistry::histograms() const {
  std::vector<HistogramSnapshot> out;
  for (const std::vector<HistogramSnapshot>& hists : ranks_) {
    for (const HistogramSnapshot& h : hists) {
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const HistogramSnapshot& s) { return s.name == h.name; });
      if (it == out.end()) {
        out.push_back(h);
      } else {
        // Count-weighted pooling: a rank that recorded only a handful of
        // samples before dying contributes exactly its samples, nothing
        // more (HistogramSnapshot::merge).
        it->merge(h);
      }
    }
  }
  return sorted_by_name(std::move(out));
}

}  // namespace grace::sim
