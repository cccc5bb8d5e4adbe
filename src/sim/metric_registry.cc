#include "sim/metric_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "sim/json_util.h"

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

MetricRegistry::MetricRegistry(int n_ranks)
    : ranks_(static_cast<size_t>(n_ranks)) {
  assert(n_ranks >= 1);
}

void MetricRegistry::inc(int rank, std::string_view name, uint64_t delta) {
  RankSlot& slot = ranks_.at(static_cast<size_t>(rank));
  for (Counter& c : slot.counters) {
    if (c.name == name) {
      c.value += delta;
      return;
    }
  }
  slot.counters.push_back(Counter{std::string(name), delta});
}

void MetricRegistry::observe(int rank, std::string_view name, double value) {
  RankSlot& slot = ranks_.at(static_cast<size_t>(rank));
  Hist* h = nullptr;
  for (Hist& hist : slot.hists) {
    if (hist.name == name) {
      h = &hist;
      break;
    }
  }
  if (!h) {
    slot.hists.push_back(Hist{});
    h = &slot.hists.back();
    h->name = std::string(name);
    h->min = value;
    h->max = value;
  }
  if (h->count == 0) {
    h->min = value;
    h->max = value;
  } else {
    h->min = std::min(h->min, value);
    h->max = std::max(h->max, value);
  }
  ++h->count;
  h->sum += value;
  ++h->buckets[static_cast<size_t>(histogram_bucket(value))];
}

std::vector<CounterSnapshot> MetricRegistry::counters() const {
  std::vector<CounterSnapshot> out;
  for (const RankSlot& slot : ranks_) {
    for (const Counter& c : slot.counters) {
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const CounterSnapshot& s) { return s.name == c.name; });
      if (it == out.end()) {
        out.push_back(CounterSnapshot{c.name, c.value});
      } else {
        it->value += c.value;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<HistogramSnapshot> MetricRegistry::histograms() const {
  std::vector<HistogramSnapshot> out;
  for (const RankSlot& slot : ranks_) {
    for (const Hist& h : slot.hists) {
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const HistogramSnapshot& s) { return s.name == h.name; });
      HistogramSnapshot s;
      s.name = h.name;
      s.count = h.count;
      s.sum = h.sum;
      s.min = h.min;
      s.max = h.max;
      s.buckets = h.buckets;
      if (it == out.end()) {
        out.push_back(std::move(s));
      } else {
        // Count-weighted pooling: a rank that recorded only a handful of
        // samples before dying contributes exactly its samples, nothing
        // more (HistogramSnapshot::merge).
        it->merge(s);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<HistogramSnapshot> MetricRegistry::histograms(int rank) const {
  const RankSlot& slot = ranks_.at(static_cast<size_t>(rank));
  std::vector<HistogramSnapshot> out;
  out.reserve(slot.hists.size());
  for (const Hist& h : slot.hists) {
    HistogramSnapshot s;
    s.name = h.name;
    s.count = h.count;
    s.sum = h.sum;
    s.min = h.min;
    s.max = h.max;
    s.buckets = h.buckets;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string metrics_json(const std::vector<CounterSnapshot>& counters,
                         const std::vector<HistogramSnapshot>& histograms) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  auto escaped = [&](const std::string& s) { append_escaped(os, s); };
  os << "{\"counters\":[";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i) os << ',';
    os << "{\"name\":";
    escaped(counters[i].name);
    os << ",\"value\":" << counters[i].value << '}';
  }
  os << "],\"histograms\":[";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i) os << ',';
    os << "{\"name\":";
    escaped(h.name);
    os << ",\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"mean\":" << h.mean() << ",\"p50\":" << h.percentile(0.5)
       << ",\"p99\":" << h.percentile(0.99) << ",\"buckets\":[";
    bool first = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[static_cast<size_t>(b)] == 0) continue;
      if (!first) os << ',';
      first = false;
      os << '[' << b << ',' << h.buckets[static_cast<size_t>(b)] << ']';
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace grace::sim
