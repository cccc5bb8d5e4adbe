#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.h"
#include "util/simd.h"

namespace grace::ops {
namespace {

// Grain sizes for the deterministic parallel runtime. Chunk boundaries
// depend only on these constants and the input length — never on the
// thread count — so every kernel below is bitwise reproducible with any
// GRACE_NUM_THREADS setting. Elementwise chunks are 16 KB of floats;
// reductions use larger chunks because each chunk result is a scalar.
constexpr int64_t kElemGrain = 4096;
constexpr int64_t kReduceGrain = 8192;

int64_t ssize(std::span<const float> x) { return static_cast<int64_t>(x.size()); }

// Out of line, so each binary kernel's check stays one compare.
[[noreturn]] void size_mismatch(const char* op, size_t dst, size_t src) {
  throw std::invalid_argument(std::string("ops::") + op + ": destination has " +
                              std::to_string(dst) + " elements, source " +
                              std::to_string(src));
}

void check_sizes(const char* op, std::span<const float> y,
                 std::span<const float> x) {
  if (y.size() != x.size()) size_mismatch(op, y.size(), x.size());
}

// Ordered chunked double-precision reduction of fn over [0, n). The chunk
// partials are combined in ascending chunk order, which fixes the
// floating-point summation tree for a given n.
template <typename Map>
double reduce_double(int64_t n, Map&& map) {
  return runtime::parallel_reduce(
      n, kReduceGrain, 0.0, std::forward<Map>(map),
      [](double acc, double part) { return acc + part; });
}

}  // namespace

void fill(std::span<float> x, float v) {
  float* p = x.data();
  runtime::parallel_for(ssize(x), kElemGrain, [&](int64_t b, int64_t e) {
    std::fill(p + b, p + e, v);
  });
}

void scale(std::span<float> x, float a) {
  float* p = x.data();
  runtime::parallel_for(ssize(x), kElemGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) p[i] *= a;
  });
}

// The binary kernels need equal sizes and throw std::invalid_argument in
// every build otherwise, before touching either span.
void add(std::span<float> y, std::span<const float> x) {
  check_sizes("add", y, x);
  float* yp = y.data();
  const float* xp = x.data();
  runtime::parallel_for(ssize(y), kElemGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) yp[i] += xp[i];
  });
}

void sub(std::span<float> y, std::span<const float> x) {
  check_sizes("sub", y, x);
  float* yp = y.data();
  const float* xp = x.data();
  runtime::parallel_for(ssize(y), kElemGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) yp[i] -= xp[i];
  });
}

void axpy(std::span<float> y, float a, std::span<const float> x) {
  check_sizes("axpy", y, x);
  float* yp = y.data();
  const float* xp = x.data();
  runtime::parallel_for(ssize(y), kElemGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) yp[i] += a * xp[i];
  });
}

void copy(std::span<float> dst, std::span<const float> src) {
  check_sizes("copy", dst, src);
  float* dp = dst.data();
  const float* sp = src.data();
  runtime::parallel_for(ssize(dst), kElemGrain, [&](int64_t b, int64_t e) {
    std::copy(sp + b, sp + e, dp + b);
  });
}

void hadamard(std::span<float> y, std::span<const float> x) {
  check_sizes("hadamard", y, x);
  float* yp = y.data();
  const float* xp = x.data();
  runtime::parallel_for(ssize(y), kElemGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) yp[i] *= xp[i];
  });
}

float sum(std::span<const float> x) {
  const float* p = x.data();
  return static_cast<float>(reduce_double(ssize(x), [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += p[i];
    return acc;
  }));
}

float l1_norm(std::span<const float> x) {
  const float* p = x.data();
  return static_cast<float>(reduce_double(ssize(x), [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += std::fabs(p[i]);
    return acc;
  }));
}

float l2_norm(std::span<const float> x) {
  const float* p = x.data();
  return static_cast<float>(
      std::sqrt(reduce_double(ssize(x), [&](int64_t lo, int64_t hi) {
        double acc = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          acc += static_cast<double>(p[i]) * p[i];
        }
        return acc;
      })));
}

float linf_norm(std::span<const float> x) {
  const float* p = x.data();
  return runtime::parallel_reduce(
      ssize(x), kReduceGrain, 0.0f,
      [&](int64_t lo, int64_t hi) {
        float m = 0.0f;
        for (int64_t i = lo; i < hi; ++i) m = std::max(m, std::fabs(p[i]));
        return m;
      },
      [](float acc, float part) { return std::max(acc, part); });
}

float max(std::span<const float> x) {
  const float* p = x.data();
  return runtime::parallel_reduce(
      ssize(x), kReduceGrain, -std::numeric_limits<float>::infinity(),
      [&](int64_t lo, int64_t hi) {
        float m = -std::numeric_limits<float>::infinity();
        for (int64_t i = lo; i < hi; ++i) m = std::max(m, p[i]);
        return m;
      },
      [](float acc, float part) { return std::max(acc, part); });
}

int64_t argmax(std::span<const float> x) {
  struct Best {
    float v = -std::numeric_limits<float>::infinity();
    int64_t at = 0;
  };
  const float* p = x.data();
  // Strict `>` in both the chunk scan and the ordered combine keeps the
  // first maximum, matching std::max_element on the serial path.
  const Best best = runtime::parallel_reduce(
      ssize(x), kReduceGrain, Best{},
      [&](int64_t lo, int64_t hi) {
        Best b{p[lo], lo};
        for (int64_t i = lo + 1; i < hi; ++i) {
          if (p[i] > b.v) b = {p[i], i};
        }
        return b;
      },
      [](Best acc, Best part) { return part.v > acc.v ? part : acc; });
  return best.at;
}

int64_t count_nonzero(std::span<const float> x) {
  const float* p = x.data();
  return runtime::parallel_reduce(
      ssize(x), kReduceGrain, int64_t{0},
      [&](int64_t lo, int64_t hi) {
        int64_t c = 0;
        for (int64_t i = lo; i < hi; ++i) c += p[i] != 0.0f ? 1 : 0;
        return c;
      },
      [](int64_t acc, int64_t part) { return acc + part; });
}

std::vector<int32_t> topk_abs_indices(std::span<const float> x, int64_t k) {
  const auto n = static_cast<int64_t>(x.size());
  k = std::clamp<int64_t>(k, 0, n);
  if (k == 0) return {};
  auto cmp = [&](int32_t a, int32_t b) {
    const float fa = std::fabs(x[static_cast<size_t>(a)]);
    const float fb = std::fabs(x[static_cast<size_t>(b)]);
    // Break magnitude ties by index so selection is deterministic.
    return fa != fb ? fa > fb : a < b;
  };
  // The comparator is a strict total order, so the top-k set is unique:
  // the two-level selection below returns exactly the same indices as a
  // single global nth_element, with any thread count.
  constexpr int64_t kTopkGrain = 1 << 16;
  std::vector<int32_t> idx;
  // The two-level path does ~1.3x the comparisons of a single selection
  // (each chunk must keep min(k, chunk) candidates), so it only wins when
  // chunks actually run concurrently: when the caller has more than one
  // lane. Both branches produce the identical unique top-k set, so the
  // choice cannot break determinism.
  if (runtime::lanes() > 1 && n >= 2 * kTopkGrain && k < n / 4) {
    // Per-chunk pre-selection: each chunk keeps its own top-k candidates
    // (a superset of the global winners it contains); candidates are laid
    // out at fixed per-chunk offsets, then reduced by one final selection.
    const int64_t chunks = runtime::detail::num_chunks(n, kTopkGrain);
    std::vector<std::vector<int32_t>> parts(static_cast<size_t>(chunks));
    runtime::detail::parallel_chunks(
        n, kTopkGrain, [&](int64_t c, int64_t lo, int64_t hi) {
          auto& part = parts[static_cast<size_t>(c)];
          part.resize(static_cast<size_t>(hi - lo));
          std::iota(part.begin(), part.end(), static_cast<int32_t>(lo));
          const auto keep = std::min<int64_t>(k, hi - lo);
          std::nth_element(part.begin(), part.begin() + (keep - 1), part.end(),
                           cmp);
          part.resize(static_cast<size_t>(keep));
        });
    for (const auto& part : parts) idx.insert(idx.end(), part.begin(), part.end());
  } else {
    idx.resize(static_cast<size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
  }
  std::nth_element(idx.begin(), idx.begin() + k, idx.end(), cmp);
  idx.resize(static_cast<size_t>(k));
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::vector<int32_t> threshold_indices(std::span<const float> x, float threshold) {
  const auto n = static_cast<int64_t>(x.size());
  const float* p = x.data();
  // Per-chunk collection concatenated in chunk order: same output as the
  // serial scan.
  const int64_t chunks = runtime::detail::num_chunks(n, kReduceGrain);
  std::vector<std::vector<int32_t>> parts(static_cast<size_t>(chunks));
  runtime::detail::parallel_chunks(
      n, kReduceGrain, [&](int64_t c, int64_t lo, int64_t hi) {
        auto& part = parts[static_cast<size_t>(c)];
        part.resize(static_cast<size_t>(hi - lo));
        const int64_t cnt =
            util::simd::threshold_select(p, lo, hi, threshold, part.data());
        part.resize(static_cast<size_t>(cnt));
      });
  std::vector<int32_t> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

}  // namespace grace::ops
