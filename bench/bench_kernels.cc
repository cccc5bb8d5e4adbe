// Kernel micro-benchmarks for the parallel compute runtime: serial seed
// kernels vs. the blocked/parallel kernels at several sizes and thread
// counts, plus the single-thread codec kernels (quantize/pack/sign-pack
// and qsgd's decode-accumulate scalar vs SIMD, qsgd's encode vs the seed
// one-pass loop, the four-lane uniform draws vs a loop of single draws,
// the frame CRC vs the seed byte loop and vs a copy of
// slicing-by-8, rice index coding vs the seed bit-at-a-time writer, one
// Adam step vs the seed Adam loop and vs the three-divide loop, the conv
// lowering's im2col and col2im vs their per-element reference loops,
// top-k's radix select vs the comparator nth_element, and GEMM's operand
// transpose scalar vs SIMD).
// The codec rows are timed in rounds that visit every row, each row's two
// sides in alternation. Prints a table and writes BENCH_kernels.json so
// successive PRs can track the compute substrate's perf trajectory.
//
// GRACE_SCALE=<f> (default 1.0) scales the problem sizes for smoke runs.
//
//   bench_kernels --ci BENCH_kernels.baseline.json
//
// reruns only the codec rows and fails (exit 1) when a measured
// baseline-vs-optimized speedup drops more than 15% below the committed
// baseline's min_speedup, or when a row has no floor there, a floor names
// no row or a kernel has two floors. Speedups are ratios within one run,
// so the check is robust to absolute machine speed; it is registered as a
// slow-labelled ctest. Without a SIMD level (a -DGRACE_NATIVE=OFF build or
// a CPU without AVX2) the rows that time a util/simd kernel are skipped,
// and so is adam_one_divide where Adam keeps its three-divide loop.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "core/index_coding.h"
#include "optim/optimizer.h"
#include "runtime/thread_pool.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/simd.h"

namespace {

using grace::Rng;

// --- Seed kernels (the pre-runtime serial implementations), kept here as
// --- the fixed baseline every future optimization is measured against.

void seed_gemm_nn(int64_t m, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      if (av == 0.0f) continue;  // the seed's per-element zero check
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

float seed_sum(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += v;
  return static_cast<float>(acc);
}

void seed_axpy(std::span<float> y, float a, std::span<const float> x) {
  for (size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

// Into idx, which keeps its capacity across calls.
void seed_topk(std::span<const float> x, int64_t k, std::vector<int32_t>& idx) {
  idx.resize(x.size());
  std::iota(idx.begin(), idx.end(), 0);
  auto cmp = [&](int32_t a, int32_t b) {
    const float fa = std::fabs(x[static_cast<size_t>(a)]);
    const float fb = std::fabs(x[static_cast<size_t>(b)]);
    return fa != fb ? fa > fb : a < b;
  };
  std::nth_element(idx.begin(), idx.begin() + k, idx.end(), cmp);
  idx.resize(static_cast<size_t>(k));
  std::sort(idx.begin(), idx.end());
}

// Like the real core::quantize, allocates its output per call.
std::vector<uint8_t> seed_quantize(std::span<const float> x, int bits,
                                   float scale) {
  std::vector<uint8_t> codes(x.size());
  const int levels = (1 << bits) - 1;
  for (size_t i = 0; i < x.size(); ++i) {
    const float t = (x[i] / scale + 1.0f) * 0.5f * static_cast<float>(levels);
    codes[i] = static_cast<uint8_t>(
        std::lround(std::clamp(t, 0.0f, static_cast<float>(levels))));
  }
  return codes;
}

// --- Seed index coding: the pre-64-bit bit-at-a-time writer, kept as the
// --- fixed baseline for the rice row.

struct SeedBitWriter {
  std::vector<uint8_t> bytes;
  uint32_t acc = 0;
  int fill = 0;
  void put_bit(uint32_t b) {
    acc |= (b & 1u) << fill;
    if (++fill == 8) {
      bytes.push_back(static_cast<uint8_t>(acc));
      acc = 0;
      fill = 0;
    }
  }
  void put_bits(uint32_t v, int c) {
    for (int i = 0; i < c; ++i) put_bit((v >> i) & 1u);
  }
  std::vector<uint8_t> finish() {
    if (fill > 0) bytes.push_back(static_cast<uint8_t>(acc));
    return std::move(bytes);
  }
};

std::vector<uint8_t> seed_rice_encode(std::span<const int32_t> indices, int k) {
  SeedBitWriter w;
  w.put_bits(static_cast<uint32_t>(k), 5);
  int32_t prev = -1;
  for (int32_t idx : indices) {
    auto delta = static_cast<uint32_t>(idx - prev - 1);
    prev = idx;
    for (uint32_t q = delta >> k; q > 0; --q) w.put_bit(1);
    w.put_bit(0);
    w.put_bits(delta & ((1u << k) - 1), k);
  }
  return w.finish();
}

// The seed Adam step: optimizer.cc's loop before that file was compiled
// with -fno-math-errno. Compiled here without the flag, std::sqrt may set
// errno, which keeps GCC from vectorizing it.
void seed_adam(const grace::optim::OptimizerConfig& cfg, int64_t step,
               std::span<float> param, std::span<float> m, std::span<float> v,
               std::span<const float> grad) {
  using grace::optim::kBeta1, grace::optim::kBeta2, grace::optim::kEps;
  const auto t = static_cast<double>(step);
  const double bias1 = 1.0 - std::pow(kBeta1, t);
  const double bias2 = 1.0 - std::pow(kBeta2, t);
  const double lr = cfg.lr;
  for (size_t i = 0; i < param.size(); ++i) {
    const float g = grad[i];
    m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
    v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    param[i] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + kEps));
  }
}

}  // namespace

namespace grace::bench {
// bench/adam_three_divide.cc: Optimizer::apply's Adam loop before it divided
// once per element, vectorized as optimizer.cc is.
void three_divide_adam(const optim::OptimizerConfig& cfg, int64_t step,
                       std::span<float> param, std::span<float> m,
                       std::span<float> v, std::span<const float> grad);
}  // namespace grace::bench

namespace {

// The seed CRC-32: util/crc32.h's loop before slicing-by-8, one table
// lookup per byte.
uint32_t seed_crc32(std::span<const std::byte> data) {
  const auto& table = grace::util::detail::kCrc32Tables[0];
  uint32_t c = ~0u;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

// The frame CRC's slicing-by-8 loop as util/crc32.h had it before the
// carry-less-multiply fold: the baseline of the crc32_clmul row.
uint32_t sliced_crc32(std::span<const std::byte> data) {
  const auto& t = grace::util::detail::kCrc32Tables;
  uint32_t c = ~0u;
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, data.data() + i, 4);
    std::memcpy(&hi, data.data() + i + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < data.size(); ++i) {
    c = t[0][(c ^ static_cast<uint32_t>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

// The first 64-byte boundary at or after p (a float buffer has 16 floats
// to spare for it).
float* aligned_to_line(float* p) {
  const auto at = reinterpret_cast<uintptr_t>(p);
  return reinterpret_cast<float*>((at + 63) & ~uintptr_t{63});
}

// One draw as an out-of-line call, as Rng::uniform was before it moved
// into tensor/rng.h.
[[gnu::noinline]] double seed_uniform(Rng& rng) { return rng.uniform(); }

// qsgd's encode before the block split: one pass over the elements, one
// out-of-line draw each, into freshly allocated outputs as compress does.
void seed_qsgd_encode(std::span<const float> x, int s, Rng& rng,
                      std::vector<uint8_t>& codes, std::vector<uint8_t>& signs) {
  const float norm = grace::ops::l2_norm(x);
  codes.assign(x.size(), 0);
  signs.assign((x.size() + 7) / 8, 0);
  const auto fs = static_cast<float>(s);
  for (size_t i = 0; i < x.size(); ++i) {
    // An infinite norm (from an infinite element) zeroes every level, as
    // compress does: |inf| / inf would be NaN.
    const float ratio =
        norm > 0.0f && std::isfinite(norm) ? std::fabs(x[i]) / norm : 0.0f;
    auto level = static_cast<int>(ratio * fs);
    const float p = ratio * fs - static_cast<float>(level);
    level += static_cast<int>(seed_uniform(rng) < p);
    codes[i] = static_cast<uint8_t>(std::min(level, s));
  }
  grace::util::simd::pack_sign_bits(x.data(), signs.data(),
                                    static_cast<int64_t>(x.size()));
}

// The conv lowering's per-element loops before im2col and col2im split
// each row into padding and a valid span (tests/test_matmul.cc keeps the
// same pair as its oracle).
[[gnu::noipa]] void reference_im2col(const float* img, int64_t c, int64_t h, int64_t w,
                      int64_t kh, int64_t kw, int64_t stride, int64_t pad,
                      float* cols) {
  const int64_t oh = grace::ops::conv_out_dim(h, kh, stride, pad);
  const int64_t ow = grace::ops::conv_out_dim(w, kw, stride, pad);
  for (int64_t row = 0; row < c * kh * kw; ++row) {
    const int64_t ch = row / (kh * kw);
    const int64_t ki = (row / kw) % kh;
    const int64_t kj = row % kw;
    for (int64_t oi = 0; oi < oh; ++oi) {
      const int64_t ii = oi * stride + ki - pad;
      for (int64_t oj = 0; oj < ow; ++oj) {
        const int64_t jj = oj * stride + kj - pad;
        const bool in_bounds = ii >= 0 && ii < h && jj >= 0 && jj < w;
        cols[(row * oh + oi) * ow + oj] =
            in_bounds ? img[(ch * h + ii) * w + jj] : 0.0f;
      }
    }
  }
}

[[gnu::noipa]] void reference_col2im(const float* cols, int64_t c, int64_t h, int64_t w,
                      int64_t kh, int64_t kw, int64_t stride, int64_t pad,
                      float* img) {
  const int64_t oh = grace::ops::conv_out_dim(h, kh, stride, pad);
  const int64_t ow = grace::ops::conv_out_dim(w, kw, stride, pad);
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        const int64_t row = (ch * kh + ki) * kw + kj;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * stride + ki - pad;
          if (ii < 0 || ii >= h) continue;
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * stride + kj - pad;
            if (jj < 0 || jj >= w) continue;
            img[(ch * h + ii) * w + jj] += cols[(row * oh + oi) * ow + oj];
          }
        }
      }
    }
  }
}

// --- Timing: repeat until ~0.3 s elapsed, report best-of-rep seconds.

template <typename Fn>
double time_best(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  double best = 1e100;
  double total = 0.0;
  int reps = 0;
  while (total < 0.3 || reps < 3) {
    const auto t0 = clock::now();
    fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, s);
    total += s;
    ++reps;
    if (reps >= 50) break;
  }
  return best;
}

struct JsonWriter {
  std::string text;
  bool first_in_scope = true;
  void sep() {
    if (!first_in_scope) text += ",";
    first_in_scope = false;
  }
  void begin(const char* bracket) {
    sep();
    text += bracket;
    first_in_scope = true;
  }
  void end(const char* bracket) {
    text += bracket;
    first_in_scope = false;
  }
  void key(const char* k) {
    sep();
    grace::bench::appendf(text, "\"%s\":", k);
    first_in_scope = true;
  }
  void str(const char* v) {
    sep();
    grace::bench::appendf(text, "\"%s\"", v);
  }
  void num(double v) {
    sep();
    grace::bench::appendf(text, "%.6g", v);
  }
  void inum(int64_t v) {
    sep();
    grace::bench::appendf(text, "%lld", static_cast<long long>(v));
  }
};

int threads_cap() { return 4; }

// --- Codec kernels: scalar baseline vs optimized within one run, so the
// --- speedup column is a ratio independent of absolute machine speed.
// --- pack/pack_signs/qsgd_decode_add pin the same grace::util::simd
// --- entry point to the scalar path via set_level_for_testing (bit
// --- packing and the per-element sign bit do not auto-vectorize, so that
// --- is genuinely scalar code); quantize8 uses the seed's lround loop as
// --- baseline because the portable scalar fallback itself is
// --- auto-vectorized by the compiler at -O3; crc32 uses the seed
// --- one-lookup-per-byte loop and crc32_clmul a copy of slicing-by-8;
// --- qsgd_encode times the seed one-pass encode, one out-of-line draw per
// --- element, against Qsgd::compress; uniform_lanes a loop of
// --- Rng::uniform against Rng::uniforms; rice uses the seed bit-at-a-time
// --- writer; adam times the seed Adam loop, and adam_one_divide a
// --- vectorized copy of the three-divide loop, against Optimizer::apply on
// --- ncf-dense's ~171k parameters, whatever the run's n; im2col and
// --- col2im time the per-element reference loops against the library on
// --- a fixed batch of conv inputs; topk_radix times the comparator
// --- nth_element against the radix select and transpose the scalar loop
// --- against the tile kernel, on cnn-topk's shapes.

struct CodecRow {
  std::string kernel;
  // The two sides, which reference run_codec_rows' locals: they run only
  // inside it.
  std::function<void()> baseline;   // scalar path (or seed loop)
  std::function<void()> optimized;  // active SIMD path (or library kernel)
  double bytes = 0.0;               // input bytes processed per call
  int64_t n = 0;                    // elements per call; 0: the run's n
  // Why --ci does not enforce the row's floor in this build, or null.
  const char* skip = nullptr;
  double baseline_seconds = 1e100;  // best of the rounds
  double seconds = 1e100;
  double speedup() const { return baseline_seconds / seconds; }
  double gb_per_s() const { return bytes / seconds / 1e9; }
};

// Timed turns of one check, over all its rows, on a 4-vCPU host (about
// what one stretch of 1.2 s per row came to before the rows shared
// rounds).
constexpr double kRoundsSeconds = 13.0;

// Times every row's two sides in rounds spread over the whole run: each
// round visits every row and runs its baseline, then its optimized side,
// and each side keeps its best turn across rounds. So a slow window on a
// shared host costs every row a few rounds instead of setting one row's
// ratio. Each turn runs its side twice and times the second run, so the
// first warms for it what the other sides' runs left cold: caches, branch
// history, and the core's state for wide vector instructions. Rounds stop
// after kRoundsSeconds of turns (at least three rounds) or 400 rounds.
// Every kernel runs on one lane, as a train() rank's do.
void time_rows(std::vector<CodecRow>& rows) {
  using clock = std::chrono::steady_clock;
  const grace::runtime::LaneLimit one_lane(1);
  double total = 0.0;
  const auto turn = [&](const std::function<void()>& fn, double& best) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    fn();
    const auto t2 = clock::now();
    total += std::chrono::duration<double>(t2 - t0).count();
    best = std::min(best, std::chrono::duration<double>(t2 - t1).count());
  };
  for (int round = 0; round < 400 && (total < kRoundsSeconds || round < 3);
       ++round) {
    for (CodecRow& r : rows) {
      turn(r.baseline, r.baseline_seconds);
      turn(r.optimized, r.seconds);
    }
  }
}

std::vector<CodecRow> run_codec_rows(int64_t n) {
  namespace simd = grace::util::simd;
  namespace optim = grace::optim;
  // The SIMD rows' floors were set for AVX2. Without a vector level each
  // of them times scalar code against itself or a seed loop.
  const char* const no_simd =
      simd::active_level() == simd::Level::Scalar ? "no SIMD level" : nullptr;
  std::vector<CodecRow> rows;
  std::vector<float> x(static_cast<size_t>(n));
  Rng rng(23);
  rng.fill_normal(x, 0.0f, 1.0f);
  const float scale = grace::ops::linf_norm(x);
  std::vector<uint8_t> codes(static_cast<size_t>(n));
  std::vector<uint8_t> packed(static_cast<size_t>(n));
  volatile uint8_t sink = 0;

  // One kernel under the scalar override and at the detected level.
  auto scalar_vs_simd = [&](const char* name, double bytes,
                            std::function<void()> fn) {
    rows.push_back({.kernel = name,
                    .baseline =
                        [fn] {
                          simd::set_level_for_testing(simd::Level::Scalar);
                          fn();
                          simd::clear_level_for_testing();
                        },
                    .optimized = fn,
                    .bytes = bytes,
                    .skip = no_simd});
  };

  // Baseline: the seed's genuinely-scalar lround loop (non-allocating).
  rows.push_back(
      {.kernel = "quantize8",
       .baseline =
           [&] {
             for (size_t i = 0; i < x.size(); ++i) {
               const float t = (x[i] / scale + 1.0f) * 0.5f * 255.0f;
               codes[i] = static_cast<uint8_t>(
                   std::lround(std::clamp(t, 0.0f, 255.0f)));
             }
             sink = codes[0];
           },
       .optimized =
           [&] {
             simd::quantize_codes(x.data(), codes.data(), n, scale, 255);
             sink = codes[0];
           },
       .bytes = 4.0 * static_cast<double>(n),
       .skip = no_simd});
  std::array<std::vector<uint8_t>, 3> narrow;  // codes cut to 1, 2, 4 bits
  for (int b = 0; b < 3; ++b) {
    const int bits = 1 << b;
    std::vector<uint8_t>& in = narrow[static_cast<size_t>(b)];
    in.resize(static_cast<size_t>(n));
    const auto mask = static_cast<uint8_t>((1 << bits) - 1);
    for (size_t i = 0; i < in.size(); ++i) in[i] = codes[i] & mask;
    char name[16];
    std::snprintf(name, sizeof(name), "pack%d", bits);
    scalar_vs_simd(name, static_cast<double>(n), [&, bits, in = in.data()] {
      simd::pack_codes(in, packed.data(), n, bits);
      sink = packed[0];
    });
  }
  scalar_vs_simd("pack_signs", 4.0 * static_cast<double>(n), [&] {
    simd::pack_sign_bits(x.data(), packed.data(), n);
    sink = packed[0];
  });

  // One peer of qsgd(64)'s gather fold: decode codes and signs and add
  // them onto the accumulator, on a tensor the size of mlp-qsgd's largest
  // (768 x 256), whatever the run's n. At the run's 2M the vector side
  // streams an 8 MB accumulator, so the ratio follows the memory bandwidth
  // other processes leave: on a shared 4-vCPU host it fell under the floor
  // in 5 of 20 runs (14.0-15.8x). Bytes are the codes, signs and the
  // accumulator read.
  const int64_t dn = std::min<int64_t>(n, 768 * 256);
  std::vector<uint8_t> qcodes(static_cast<size_t>(dn));
  for (size_t i = 0; i < qcodes.size(); ++i) {
    qcodes[i] = static_cast<uint8_t>(std::fabs(x[i]) / scale * 64.0f);
  }
  std::vector<uint8_t> qsigns(static_cast<size_t>((dn + 7) / 8));
  simd::pack_sign_bits(x.data(), qsigns.data(), dn);
  std::vector<float> acc(static_cast<size_t>(dn), 0.0f);
  scalar_vs_simd("qsgd_decode_add", 5.125 * static_cast<double>(dn), [&] {
    simd::dequantize_signed(qcodes.data(), qsigns.data(), acc.data(), dn,
                            scale, 64, /*accumulate=*/true);
    sink = static_cast<uint8_t>(acc[0] > 0.0f);
  });
  rows.back().n = dn;

  const auto frame = std::as_bytes(std::span<const float>(x));
  const auto crc = [&] { sink = static_cast<uint8_t>(grace::util::crc32(frame)); };
  rows.push_back(
      {.kernel = "crc32",
       .baseline = [&] { sink = static_cast<uint8_t>(seed_crc32(frame)); },
       .optimized = crc,
       .bytes = 4.0 * static_cast<double>(n)});
  // The carry-less-multiply fold against the slicing-by-8 it replaced; at
  // the Scalar level util::crc32 is that loop, so the row is skipped.
  rows.push_back(
      {.kernel = "crc32_clmul",
       .baseline = [&] { sink = static_cast<uint8_t>(sliced_crc32(frame)); },
       .optimized = crc,
       .bytes = 4.0 * static_cast<double>(n),
       .skip = no_simd});

  // qsgd(64)'s whole encode, as a train() rank runs it: the norm, the
  // levels with one draw per element, and the sign plane, on a tensor the
  // size of mlp-qsgd's largest (768 x 256), whatever the run's n.
  const grace::Tensor grad = grace::Tensor::from(
      std::span<const float>(x).first(static_cast<size_t>(dn)));
  std::vector<uint8_t> seed_codes, seed_signs;
  Rng seed_rng(37), rng_q(37);
  const auto qsgd = grace::core::compressors::make_qsgd(64);
  // Each call's payload lives until the next replaces it, as a handle's
  // lives until wait. Freed at once, with the other rows' buffers alive
  // through the rounds, its 196 KB of codes went back to the top of the
  // heap, glibc trimmed them, and the next call faulted them in again
  // (about 70 minor faults per call).
  grace::core::CompressedTensor payload;
  // Its level pass is auto-vectorized for the build's ISA: a generic
  // (SSE2) build reads 0.9-1.1x, so the row counts as a SIMD row.
  rows.push_back(
      {.kernel = "qsgd_encode",
       .baseline =
           [&] {
             seed_qsgd_encode(grad.f32(), 64, seed_rng, seed_codes, seed_signs);
             sink = seed_codes[0];
           },
       .optimized =
           [&] {
             payload = qsgd->compress(grad, "g", rng_q);
             sink = payload.parts[0].u8()[0];
           },
       .bytes = 4.0 * static_cast<double>(grad.numel()),
       .n = grad.numel(),
       .skip = no_simd});

  // Rng::uniforms against a loop of uniform(), over as many draws as
  // mlp-qsgd's largest gradient takes, whatever the run's n. Without a SIMD
  // level uniforms is that loop.
  std::vector<double> draws(static_cast<size_t>(768 * 256));
  Rng loop_rng(53), lanes_rng(53);
  rows.push_back(
      {.kernel = "uniform_lanes",
       .baseline =
           [&] {
             for (double& u : draws) u = loop_rng.uniform();
             sink = static_cast<uint8_t>(draws[0] < 0.5);
           },
       .optimized =
           [&] {
             lanes_rng.uniforms(draws);
             sink = static_cast<uint8_t>(draws[0] < 0.5);
           },
       .bytes = 8.0 * static_cast<double>(draws.size()),
       .n = static_cast<int64_t>(draws.size()),
       .skip = no_simd});

  // The conv lowering over a batch of 8 of each of cnn-small's two
  // convolution inputs (3x16x16 and 16x8x8; 3x3 kernel, stride 1, pad 1),
  // as a train() rank's conv2d runs it.
  struct Conv {
    int64_t c, h, w, img_n, col_n;
  };
  constexpr int64_t kBatch = 8, kK = 3;
  std::vector<Conv> convs;
  int64_t img_total = 0, col_total = 0;
  for (const auto& [c, h, w] : {std::array<int64_t, 3>{3, 16, 16}, {16, 8, 8}}) {
    const int64_t oh = grace::ops::conv_out_dim(h, kK, 1, 1);
    const int64_t ow = grace::ops::conv_out_dim(w, kK, 1, 1);
    convs.push_back({c, h, w, c * h * w, c * kK * kK * oh * ow});
    img_total += kBatch * convs.back().img_n;
    col_total += kBatch * convs.back().col_n;
  }
  // Images and columns at fixed cache-line-aligned places in one buffer,
  // half a page apart, so where the heap puts them cannot move the ratios.
  std::vector<float> conv_store(static_cast<size_t>(img_total + col_total + 528));
  const std::span<float> imgs(aligned_to_line(conv_store.data()),
                              static_cast<size_t>(img_total));
  const std::span<float> cols(imgs.data() + img_total + 512,
                              static_cast<size_t>(col_total));
  Rng crng(41);
  crng.fill_normal(imgs, 0.0f, 1.0f);
  // Calls fn(conv, image, columns) for every image of the batch.
  const auto each_image = [&](auto&& fn) {
    float* img = imgs.data();
    float* col = cols.data();
    for (const Conv& cv : convs) {
      for (int64_t b = 0; b < kBatch; ++b) {
        fn(cv, img, col);
        img += cv.img_n;
        col += cv.col_n;
      }
    }
  };
  const double col_bytes = 4.0 * static_cast<double>(col_total);
  rows.push_back(
      {.kernel = "im2col",
       .baseline =
           [&] {
             each_image([](const Conv& cv, float* img, float* col) {
               reference_im2col(img, cv.c, cv.h, cv.w, kK, kK, 1, 1, col);
             });
             sink = static_cast<uint8_t>(cols[0] > 0.0f);
           },
       .optimized =
           [&] {
             each_image([](const Conv& cv, float* img, float* col) {
               grace::ops::im2col({img, static_cast<size_t>(cv.img_n)}, cv.c,
                                  cv.h, cv.w, kK, kK, 1, 1,
                                  {col, static_cast<size_t>(cv.col_n)});
             });
             sink = static_cast<uint8_t>(cols[0] > 0.0f);
           },
       .bytes = col_bytes,
       .n = col_total});
  rows.push_back(
      {.kernel = "col2im",
       .baseline =
           [&] {
             each_image([](const Conv& cv, float* img, float* col) {
               reference_col2im(col, cv.c, cv.h, cv.w, kK, kK, 1, 1, img);
             });
             sink = static_cast<uint8_t>(imgs[0] > 0.0f);
           },
       .optimized =
           [&] {
             each_image([](const Conv& cv, float* img, float* col) {
               grace::ops::col2im({col, static_cast<size_t>(cv.col_n)}, cv.c,
                                  cv.h, cv.w, kK, kK, 1, 1,
                                  {img, static_cast<size_t>(cv.img_n)});
             });
             sink = static_cast<uint8_t>(imgs[0] > 0.0f);
           },
       .bytes = col_bytes,
       .n = col_total});

  // Top-k over cnn-topk's two large gradients, conv2.W (4608) and fc.W
  // (5120), at its 1%: the comparator nth_element the radix select
  // replaced against ops::topk_abs_indices. Both live in one
  // cache-line-aligned buffer, so where the heap puts them cannot move the
  // ratio.
  constexpr int64_t kTopkSizes[] = {4608, 5120};
  std::vector<float> topk_store(4608 + 5120 + 16);
  std::vector<std::span<const float>> topk_grads;
  float* at = aligned_to_line(topk_store.data());
  for (const int64_t gn : kTopkSizes) {
    const std::span<float> g(at, static_cast<size_t>(gn));
    Rng grng(static_cast<uint64_t>(43 + gn));
    grng.fill_normal(g, 0.0f, 1e-3f);
    topk_grads.emplace_back(g);
    at += gn;
  }
  std::vector<int32_t> idx;
  rows.push_back(
      {.kernel = "topk_radix",
       .baseline =
           [&] {
             for (const auto g : topk_grads) {
               seed_topk(g, std::ssize(g) / 100, idx);
               sink = static_cast<uint8_t>(idx[0]);
             }
           },
       .optimized =
           [&] {
             for (const auto g : topk_grads) {
               sink = static_cast<uint8_t>(
                   grace::ops::topk_abs_indices(g, std::ssize(g) / 100)[0]);
             }
           },
       .bytes = 4.0 * (4608 + 5120),
       .n = 4608 + 5120});

  // GEMM's operand transpose, on the shapes cnn-topk's backward transposes
  // (conv1's and conv2's cols, fc.W, the fc input): the scalar loop
  // against the tile kernel. Source and destination sit at fixed
  // cache-line-aligned places in one buffer.
  const std::array<std::pair<int64_t, int64_t>, 4> shapes{
      {{27, 256}, {144, 64}, {512, 10}, {8, 512}}};
  int64_t moved = 0, largest = 0;
  for (const auto& [tm, tn] : shapes) {
    moved += tm * tn;
    largest = std::max(largest, tm * tn);
  }
  const auto tsize = static_cast<size_t>(largest);
  std::vector<float> transpose_store(2 * tsize + 32);
  const std::span<float> tin(aligned_to_line(transpose_store.data()), tsize);
  const std::span<float> tout(aligned_to_line(tin.data() + tsize + 16), tsize);
  Rng trng(47);
  trng.fill_normal(tin, 0.0f, 1.0f);
  scalar_vs_simd("transpose", 4.0 * static_cast<double>(moved), [&] {
    for (const auto& [tm, tn] : shapes) {
      grace::ops::transpose(tin.first(static_cast<size_t>(tm * tn)), tm, tn,
                            tout);
    }
    sink = static_cast<uint8_t>(tout[0] > 0.0f);
  });
  rows.back().n = moved;

  // Index coding on a 1%-sparse list over [0, n).
  const int64_t k = std::max<int64_t>(1, n / 100);
  Rng irng(29);
  const auto indices = irng.sample_indices(n, k);
  rows.push_back(
      {.kernel = "rice",
       .baseline = [&] { sink = seed_rice_encode(indices, 6)[0]; },
       .optimized =
           [&] {
             sink = grace::core::rice_encode_indices(indices, 6).u8()[0];
           },
       .bytes = 4.0 * static_cast<double>(k)});

  // Adam on a constant gradient: each side steps its own parameters and
  // moments.
  struct AdamInputs {
    std::vector<float> grad, param, m, v, lib_param;
    int64_t step = 0;
    std::unique_ptr<optim::Optimizer> adam;
  };
  using AdamStep = void (*)(const optim::OptimizerConfig&, int64_t,
                            std::span<float>, std::span<float>,
                            std::span<float>, std::span<const float>);
  const optim::OptimizerConfig adam_cfg{.type = optim::OptimizerType::Adam,
                                        .lr = 1e-3};
  std::array<AdamInputs, 2> adams;
  const auto adam_row = [&](AdamInputs& a, const char* name, int64_t params,
                            AdamStep base) {
    a.grad.resize(static_cast<size_t>(params));
    Rng grng(31);
    grng.fill_normal(a.grad, 0.0f, 1.0f);
    for (auto* buf : {&a.param, &a.m, &a.v, &a.lib_param}) {
      buf->assign(a.grad.size(), 0.0f);
    }
    a.adam = optim::make_optimizer(adam_cfg);
    rows.push_back({.kernel = name,
                    .baseline =
                        [&, base] {
                          base(adam_cfg, ++a.step, a.param, a.m, a.v, a.grad);
                          sink = static_cast<uint8_t>(a.param[0] > 0.0f);
                        },
                    .optimized =
                        [&] {
                          a.adam->apply(0, a.lib_param, a.grad);
                          sink = static_cast<uint8_t>(a.lib_param[0] > 0.0f);
                        },
                    // Reads param, grad, m and v.
                    .bytes = 16.0 * static_cast<double>(params),
                    .n = params});
  };
  adam_row(adams[0], "adam", 171'000, seed_adam);
  // Adam's step divides once per element where the build's ISA has AVX2
  // (optim::kAdamDividesOnce); elsewhere Optimizer::apply is the loop this
  // row's baseline copies.
  adam_row(adams[1], "adam_one_divide", 171'649,
           grace::bench::three_divide_adam);
  if (!optim::kAdamDividesOnce) rows.back().skip = "three-divide build";

  time_rows(rows);
  (void)sink;
  return rows;
}

void print_codec_rows(const std::vector<CodecRow>& rows, int64_t n) {
  namespace simd = grace::util::simd;
  std::printf("%-18s %12s %12s %9s   (simd level: %s, n=%lld)\n", "codec",
              "scalar GB/s", "simd GB/s", "speedup",
              simd::level_name(simd::active_level()),
              static_cast<long long>(n));
  for (const auto& r : rows) {
    std::printf("%-18s %12.2f %12.2f %8.2fx\n", r.kernel.c_str(),
                r.bytes / r.baseline_seconds / 1e9, r.gb_per_s(), r.speedup());
  }
}

// --ci: compare this run's codec speedups against the committed
// baseline. The baseline stores min_speedup floors set ~15% under a
// measured run (see BENCH_kernels.baseline.json); a speedup below its
// floor is a regression beyond run-to-run noise and fails the check.
int run_check(const char* baseline_path) {
  const std::string text = grace::bench::read_file(baseline_path);
  if (text.empty()) {
    std::fprintf(stderr, "cannot read baseline '%s'\n", baseline_path);
    return 1;
  }
  // Smaller than the full bench: the check is a ctest.
  const int64_t n = std::max<int64_t>(
      1 << 12, static_cast<int64_t>((1 << 21) * grace::bench::scale_from_env()));
  const auto rows = run_codec_rows(n);
  print_codec_rows(rows, n);

  namespace json = grace::util::json;
  std::map<std::string, double> floors;  // kernel -> min_speedup
  try {
    const json::Value doc = json::parse(text);
    const json::Value& codec = doc.at("codec");
    for (const json::Value& row : codec.array()) {
      const std::string& kernel = row.at("kernel").string();
      if (std::none_of(rows.begin(), rows.end(),
                       [&](const CodecRow& r) { return r.kernel == kernel; })) {
        row.fail("the floor of '" + kernel + "' names no codec row");
      }
      if (!floors.emplace(kernel, row.at("min_speedup").number()).second) {
        row.fail("a second floor for '" + kernel + "'");
      }
    }
    for (const CodecRow& r : rows) {
      if (floors.count(r.kernel) == 0) codec.fail("no floor for " + r.kernel);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "FAIL baseline '%s': %s\n", baseline_path, e.what());
    return 1;
  }

  int rc = 0;
  for (const auto& r : rows) {
    const double floor = floors.at(r.kernel);
    if (r.skip != nullptr) {
      std::printf("skip %-12s %.2fx, floor %.2fx (%s)\n", r.kernel.c_str(),
                  r.speedup(), floor, r.skip);
      continue;
    }
    if (r.speedup() < floor) {
      std::fprintf(stderr,
                   "FAIL %s: speedup %.2fx below baseline floor %.2fx\n",
                   r.kernel.c_str(), r.speedup(), floor);
      rc = 1;
    } else {
      std::printf("ok   %-12s %.2fx >= floor %.2fx\n", r.kernel.c_str(),
                  r.speedup(), floor);
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grace;
  const bench::GateArgs args =
      bench::gate_args(argc, argv, "bench_kernels", /*with_baseline=*/true);
  if (args.ci) return run_check(args.baseline);
  const double scale = bench::scale_from_env();
  auto scaled = [&](int64_t v) {
    return std::max<int64_t>(16, static_cast<int64_t>(v * scale));
  };

  JsonWriter out;
  out.begin("{");
  out.key("hardware_concurrency");
  out.inum(static_cast<int64_t>(std::thread::hardware_concurrency()));
  out.key("grace_num_threads_default");
  out.inum(runtime::threads_from_env(std::getenv("GRACE_NUM_THREADS")));

  std::printf("bench_kernels: serial seed kernels vs blocked/parallel runtime\n");
  std::printf("hardware_concurrency=%u\n\n", std::thread::hardware_concurrency());

  // ---- GEMM ------------------------------------------------------------
  out.key("gemm");
  out.begin("[");
  std::printf("%-18s %8s %12s %12s %9s %9s\n", "gemm (m=n=k)", "threads",
              "seed GF/s", "blocked GF/s", "speedup", "max|diff|");
  for (int64_t dim : {scaled(128), scaled(256), scaled(512)}) {
    const int64_t m = dim, n = dim, k = dim;
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    Rng rng(7);
    rng.fill_normal(a, 0.0f, 1.0f);
    rng.fill_normal(b, 0.0f, 1.0f);
    std::vector<float> c_seed(static_cast<size_t>(m * n), 0.0f);
    const double flops = 2.0 * static_cast<double>(m) * n * k;

    const double seed_s = time_best([&] {
      std::fill(c_seed.begin(), c_seed.end(), 0.0f);
      seed_gemm_nn(m, n, k, 1.0f, a.data(), b.data(), c_seed.data());
    });

    for (int threads : {1, 2, threads_cap()}) {
      runtime::ThreadPool::global().resize(threads);
      std::vector<float> c(static_cast<size_t>(m * n));
      const double blocked_s = time_best([&] {
        ops::gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
      });
      float max_diff = 0.0f;
      for (size_t i = 0; i < c.size(); ++i) {
        max_diff = std::max(max_diff, std::fabs(c[i] - c_seed[i]));
      }
      std::printf("%-18lld %8d %12.2f %12.2f %8.2fx %9.2g\n",
                  static_cast<long long>(dim), threads, flops / seed_s / 1e9,
                  flops / blocked_s / 1e9, seed_s / blocked_s, max_diff);
      out.begin("{");
      out.key("m"); out.inum(m);
      out.key("n"); out.inum(n);
      out.key("k"); out.inum(k);
      out.key("threads"); out.inum(threads);
      out.key("seed_serial_seconds"); out.num(seed_s);
      out.key("blocked_seconds"); out.num(blocked_s);
      out.key("seed_gflops"); out.num(flops / seed_s / 1e9);
      out.key("blocked_gflops"); out.num(flops / blocked_s / 1e9);
      out.key("speedup"); out.num(seed_s / blocked_s);
      out.key("max_abs_diff"); out.num(max_diff);
      out.end("}");
    }
  }
  out.end("]");
  std::printf("\n");

  // ---- Elementwise / reductions ---------------------------------------
  out.key("elementwise");
  out.begin("[");
  const int64_t en = scaled(1 << 22);
  std::vector<float> ex(static_cast<size_t>(en)), ey(static_cast<size_t>(en));
  Rng erng(11);
  erng.fill_normal(ex, 0.0f, 1.0f);
  erng.fill_normal(ey, 0.0f, 1.0f);
  std::printf("%-18s %8s %12s %12s %9s\n", "op (n=4M*scale)", "threads",
              "seed GB/s", "runtime GB/s", "speedup");
  for (int threads : {1, 2, threads_cap()}) {
    runtime::ThreadPool::global().resize(threads);
    struct Row {
      const char* name;
      double seed_s;
      double par_s;
      double bytes;
    };
    std::vector<Row> rows;
    {
      const double seed_s = time_best([&] { seed_axpy(ey, 0.5f, ex); });
      const double par_s = time_best([&] { ops::axpy(ey, 0.5f, ex); });
      rows.push_back({"axpy", seed_s, par_s, 12.0 * static_cast<double>(en)});
    }
    {
      volatile float sink = 0.0f;
      const double seed_s = time_best([&] { sink = seed_sum(ex); });
      const double par_s = time_best([&] { sink = ops::sum(ex); });
      (void)sink;
      rows.push_back({"sum", seed_s, par_s, 4.0 * static_cast<double>(en)});
    }
    for (const auto& r : rows) {
      std::printf("%-18s %8d %12.2f %12.2f %8.2fx\n", r.name, threads,
                  r.bytes / r.seed_s / 1e9, r.bytes / r.par_s / 1e9,
                  r.seed_s / r.par_s);
      out.begin("{");
      out.key("op"); out.str(r.name);
      out.key("n"); out.inum(en);
      out.key("threads"); out.inum(threads);
      out.key("seed_seconds"); out.num(r.seed_s);
      out.key("runtime_seconds"); out.num(r.par_s);
      out.key("speedup"); out.num(r.seed_s / r.par_s);
      out.end("}");
    }
  }
  out.end("]");
  std::printf("\n");

  // ---- Top-k selection -------------------------------------------------
  out.key("topk");
  out.begin("[");
  const int64_t tn = scaled(1 << 21);
  const int64_t tk = std::max<int64_t>(1, tn / 100);
  std::vector<float> tx(static_cast<size_t>(tn));
  Rng trng(13);
  trng.fill_normal(tx, 0.0f, 1.0f);
  std::printf("%-18s %8s %12s %12s %9s\n", "topk (n=2M,k=1%)", "threads",
              "seed Mel/s", "runtime Mel/s", "speedup");
  for (int threads : {1, 2, threads_cap()}) {
    runtime::ThreadPool::global().resize(threads);
    std::vector<int32_t> idx;
    const double seed_s = time_best([&] { seed_topk(tx, tk, idx); });
    const double par_s = time_best([&] { ops::topk_abs_indices(tx, tk); });
    std::printf("%-18s %8d %12.2f %12.2f %8.2fx\n", "", threads,
                static_cast<double>(tn) / seed_s / 1e6,
                static_cast<double>(tn) / par_s / 1e6, seed_s / par_s);
    out.begin("{");
    out.key("n"); out.inum(tn);
    out.key("k"); out.inum(tk);
    out.key("threads"); out.inum(threads);
    out.key("seed_seconds"); out.num(seed_s);
    out.key("runtime_seconds"); out.num(par_s);
    out.key("speedup"); out.num(seed_s / par_s);
    out.end("}");
  }
  out.end("]");
  std::printf("\n");

  // ---- Quantize (compressor hot loop) ---------------------------------
  out.key("quantize");
  out.begin("[");
  const int64_t qn = scaled(1 << 22);
  std::vector<float> qx(static_cast<size_t>(qn));
  Rng qrng(17);
  qrng.fill_normal(qx, 0.0f, 1.0f);
  volatile uint8_t qsink = 0;
  const float qscale = ops::linf_norm(qx);
  std::printf("%-18s %8s %12s %12s %9s\n", "quantize8 (n=4M)", "threads",
              "seed Mel/s", "runtime Mel/s", "speedup");
  for (int threads : {1, 2, threads_cap()}) {
    runtime::ThreadPool::global().resize(threads);
    const double seed_s =
        time_best([&] { qsink = seed_quantize(qx, 8, qscale)[0]; });
    const double par_s = time_best(
        [&] { qsink = core::quantize(qx, 8, qscale).codes.u8()[0]; });
    std::printf("%-18s %8d %12.2f %12.2f %8.2fx\n", "", threads,
                static_cast<double>(qn) / seed_s / 1e6,
                static_cast<double>(qn) / par_s / 1e6, seed_s / par_s);
    out.begin("{");
    out.key("n"); out.inum(qn);
    out.key("bits"); out.inum(8);
    out.key("threads"); out.inum(threads);
    out.key("seed_seconds"); out.num(seed_s);
    out.key("runtime_seconds"); out.num(par_s);
    out.key("speedup"); out.num(seed_s / par_s);
    out.end("}");
  }
  out.end("]");
  std::printf("\n");

  // ---- Codec kernels: scalar vs SIMD (single thread) -------------------
  out.key("simd_level");
  out.str(util::simd::level_name(util::simd::active_level()));
  out.key("codec");
  out.begin("[");
  const int64_t cn = scaled(1 << 22);
  const auto codec_rows = run_codec_rows(cn);
  print_codec_rows(codec_rows, cn);
  for (const auto& r : codec_rows) {
    out.begin("{");
    out.key("kernel"); out.str(r.kernel.c_str());
    out.key("n"); out.inum(r.n > 0 ? r.n : cn);
    out.key("scalar_seconds"); out.num(r.baseline_seconds);
    out.key("simd_seconds"); out.num(r.seconds);
    out.key("scalar_gb_per_s"); out.num(r.bytes / r.baseline_seconds / 1e9);
    out.key("gb_per_s"); out.num(r.gb_per_s());
    out.key("speedup"); out.num(r.speedup());
    out.end("}");
  }
  out.end("]");

  out.end("}");
  out.text += "\n";
  runtime::ThreadPool::global().resize(
      runtime::threads_from_env(std::getenv("GRACE_NUM_THREADS")));
  std::printf("\n");
  return bench::write_bench_json("kernels", out.text) ? 0 : 1;
}
