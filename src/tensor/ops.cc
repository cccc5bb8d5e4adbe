#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

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

// Sums term(i) over K consecutive chunks from chunk c on, the first len
// elements of each, in one loop with one accumulator per chunk: each chunk
// keeps its own add sequence, while the chunks' adds overlap instead of
// each waiting on the one before.
template <int K, typename Term>
void sum_chunks(const Term& term, int64_t c, int64_t len, double* parts) {
  double acc[K] = {};
  const int64_t base = c * kReduceGrain;
  for (int64_t i = 0; i < len; ++i) {
    for (int k = 0; k < K; ++k) acc[k] += term(base + k * kReduceGrain + i);
  }
  std::copy_n(acc, K, parts + c);
}

// Ordered chunked double-precision reduction of term(i) over [0, n): each
// kReduceGrain chunk sums its terms in index order from 0.0, and the chunk
// partials are combined in ascending chunk order, which fixes the
// floating-point summation tree for a given n. A task takes four chunks,
// and sums them side by side when all four are whole.
template <typename Term>
double reduce_double(int64_t n, const Term& term) {
  if (n <= kReduceGrain) {
    double sum = 0.0;
    sum_chunks<1>(term, 0, n, &sum);
    return sum;
  }
  const int64_t chunks = (n + kReduceGrain - 1) / kReduceGrain;
  std::vector<double> parts(static_cast<size_t>(chunks));
  runtime::parallel_for(chunks, 4, [&](int64_t c0, int64_t c1) {
    double* p = parts.data();
    int64_t c = c0;
    if (c1 - c0 == 4 && c1 * kReduceGrain <= n) {
      sum_chunks<4>(term, c0, kReduceGrain, p);
      c = c1;
    }
    for (; c < c1; ++c) {
      sum_chunks<1>(term, c, std::min(kReduceGrain, n - c * kReduceGrain), p);
    }
  });
  double acc = 0.0;
  for (const double p : parts) acc += p;
  return acc;
}

// Top-k orders elements by key, the sign-cleared bits of the float, then
// by index. For values other than NaN the unsigned order of the keys is
// the order of |x|, and +0 and -0 tie; a NaN's key lies above +inf's.
inline uint32_t abs_key(float v) {
  return std::bit_cast<uint32_t>(v) & 0x7FFFFFFFu;
}

// Where the top k ends: the k-th largest key, and how many elements holding
// it the top k takes (the lowest-index ones).
struct TopkCut {
  uint32_t key;
  int64_t ties;
};

// The need-th largest key of exponent bucket d (1 <= need <= count, the
// bucket's size), as a cut. Each entry of sel holds a key in its high
// half; the bucket's keys are among them, with larger ones. The mantissa's
// top, middle and low bytes narrow the bucket by radix select, one
// histogram each, over the keys that still match. Once every matching key
// is needed, the smallest of them is the cut.
TopkCut cut_in_bucket(std::span<const uint64_t> sel, uint32_t d,
                      int64_t count, int64_t need) {
  uint32_t prefix = d << 23;    // the key bits fixed so far
  uint32_t mask = 0xFFu << 23;  // which bits those are
  for (const int shift : {15, 7, 0}) {
    if (need == count) break;
    std::array<uint32_t, 256> hist{};
    uint32_t b = 0;  // the largest digit, where the walk down starts
    for (const uint64_t s : sel) {
      const auto key = static_cast<uint32_t>(s >> 32);
      if ((key & mask) == prefix) {
        const uint32_t digit = (key >> shift) & 0xFFu;
        ++hist[digit];
        b = std::max(b, digit);
      }
    }
    while (hist[b] < need) need -= hist[b--];
    count = hist[b];
    prefix |= b << shift;
    mask |= 0xFFu << shift;
  }
  // After the low byte the matching keys are all equal, so need of them
  // tie; otherwise every matching key is taken.
  uint32_t least = 0xFFFFFFFFu;
  for (const uint64_t s : sel) {
    const auto key = static_cast<uint32_t>(s >> 32);
    if ((key & mask) == prefix) least = std::min(least, key);
  }
  int64_t equal = 0;
  for (const uint64_t s : sel) equal += static_cast<uint32_t>(s >> 32) == least;
  return {least, need == count ? equal : need};
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
  return static_cast<float>(
      reduce_double(ssize(x), [p](int64_t i) { return double{p[i]}; }));
}

float l1_norm(std::span<const float> x) {
  const float* p = x.data();
  return static_cast<float>(reduce_double(
      ssize(x), [p](int64_t i) { return double{std::fabs(p[i])}; }));
}

float l2_norm(std::span<const float> x) {
  const float* p = x.data();
  return static_cast<float>(std::sqrt(reduce_double(
      ssize(x), [p](int64_t i) { return static_cast<double>(p[i]) * p[i]; })));
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
  const float* p = x.data();
  // Pass 1: a histogram of the keys' top byte, the exponent. Walking it
  // down from the largest exponent finds bucket d, which holds the k-th
  // largest key; the buckets above d supply k - need of the k.
  std::array<uint32_t, 256> hist{};
  uint32_t d = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t e = abs_key(p[i]) >> 23;
    ++hist[e];
    d = std::max(d, e);
  }
  int64_t need = k;
  while (hist[d] < need) need -= hist[d--];
  // Pass 2, the last over all of x: the indices of bucket d and above, in
  // index order; pass 1 counted them.
  const uint32_t floor = d << 23;
  std::vector<int32_t> above(static_cast<size_t>(k - need + hist[d]));
  size_t c = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (abs_key(p[i]) >= floor) above[c++] = static_cast<int32_t>(i);
  }
  // Each with its key in the high half, so the passes below read no x.
  std::vector<uint64_t> sel(above.size());
  for (size_t j = 0; j < above.size(); ++j) {
    sel[j] = uint64_t{abs_key(p[above[j]])} << 32 | static_cast<uint32_t>(above[j]);
  }
  const TopkCut cut = cut_in_bucket(sel, d, hist[d], need);
  // Keep every key above the cut and the lowest-index `ties` keys equal
  // to it: exactly k, in index order.
  size_t kept = 0;
  int64_t ties = cut.ties;
  for (const uint64_t s : sel) {
    const auto key = static_cast<uint32_t>(s >> 32);
    if (key > cut.key || (key == cut.key && ties-- > 0)) {
      above[kept++] = static_cast<int32_t>(s & 0xFFFFFFFFu);
    }
  }
  above.resize(kept);
  return above;
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
