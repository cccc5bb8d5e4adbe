#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "util/crc32.h"

// Compile-time ISA availability. The build uses -march=native by default
// (GRACE_NATIVE), so this mirrors the build host; a generic build keeps
// only the scalar reference and detected_level() reports Scalar.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)
#define GRACE_SIMD_AVX2 1
#include <immintrin.h>
// The CRC fold also needs PCLMULQDQ, which cpuid reports on its own.
#ifdef __PCLMUL__
#define GRACE_SIMD_CLMUL 1
#endif
#endif

namespace grace::util::simd {
namespace {

// ---------------------------------------------------------------- dispatch

std::atomic<int> g_override{-1};

#ifdef GRACE_SIMD_AVX2
bool avx2() { return active_level() == Level::Avx2; }
#endif
#ifdef GRACE_SIMD_CLMUL
bool clmul() {
  static const bool supported = __builtin_cpu_supports("pclmul");
  return supported && avx2();
}
#endif

// ---------------------------------------------------------- scalar kernels
// These are the semantic reference: every vector variant below replicates
// their exact IEEE-754 operation order and rounding.

inline uint8_t quantize_one(float x, float scale, float flevels, uint8_t mid) {
  // Same op order as the vector paths: div, add, mul, mul — each exactly
  // rounded, so scalar and vector agree bit for bit (-ffp-contract=off
  // keeps the compiler from fusing any of these into FMAs).
  const float t = (x / scale + 1.0f) * 0.5f * flevels;
  if (std::isnan(t)) return mid;
  // Round half up via float add + truncate: cvttps has no half-away mode,
  // and floor(t + 0.5f) is cheap in every ISA. After the clamp t is in
  // [0, flevels] so t + 0.5f never exceeds levels + 0.5.
  const float u = std::min(std::max(t, 0.0f), flevels) + 0.5f;
  return static_cast<uint8_t>(static_cast<int>(u));
}

void quantize_scalar(const float* x, uint8_t* codes, int64_t n, float scale,
                     int levels) {
  const float flevels = static_cast<float>(levels);
  const auto mid = static_cast<uint8_t>(levels / 2);
  for (int64_t i = 0; i < n; ++i) {
    codes[i] = quantize_one(x[i], scale, flevels, mid);
  }
}

inline float dequantize_one(uint8_t c, float scale, float flevels) {
  return (static_cast<float>(c) / flevels * 2.0f - 1.0f) * scale;
}

void dequantize_scalar(const uint8_t* codes, float* out, int64_t n,
                       float scale, int levels) {
  const float flevels = static_cast<float>(levels);
  for (int64_t i = 0; i < n; ++i) {
    out[i] = dequantize_one(codes[i], scale, flevels);
  }
}

// Signed dequantize for elements [first, n).
template <bool Accumulate>
void dequantize_signed_scalar(const uint8_t* codes, const uint8_t* signs,
                              float* out, int64_t first, int64_t n, float norm,
                              float flevels) {
  for (int64_t i = first; i < n; ++i) {
    const float mag = norm * static_cast<float>(codes[i]) / flevels;
    const float v = (signs[i / 8] >> (i % 8)) & 1u ? mag : -mag;
    if constexpr (Accumulate) {
      out[i] += v;
    } else {
      out[i] = v;
    }
  }
}

// Pack code words for elements [first, n) assuming first * bits is on a
// byte boundary. Builds each output byte in a register and stores it once.
void pack_scalar_range(const uint8_t* codes, uint8_t* out, int64_t first,
                       int64_t n, int bits) {
  const int per = 8 / bits;
  const auto mask = static_cast<uint8_t>((1 << bits) - 1);
  assert(first % per == 0);
  for (int64_t base = first; base < n; base += per) {
    uint8_t v = 0;
    const int64_t end = std::min<int64_t>(n, base + per);
    for (int64_t i = base; i < end; ++i) {
      v = static_cast<uint8_t>(
          v | ((codes[i] & mask) << (static_cast<int>(i - base) * bits)));
    }
    out[base / per] = v;
  }
}

void unpack_scalar_range(const uint8_t* packed, uint8_t* codes, int64_t first,
                         int64_t n, int bits) {
  const int per = 8 / bits;
  const auto mask = static_cast<uint8_t>((1 << bits) - 1);
  for (int64_t i = first; i < n; ++i) {
    const auto byte = static_cast<size_t>(i / per);
    const int shift = static_cast<int>(i % per) * bits;
    codes[i] = static_cast<uint8_t>((packed[byte] >> shift) & mask);
  }
}

// Pack sign bits for elements [first, n), first on a byte boundary.
void pack_signs_scalar_range(const float* x, uint8_t* out, int64_t first,
                             int64_t n) {
  assert(first % 8 == 0);
  for (int64_t base = first; base < n; base += 8) {
    uint8_t v = 0;
    const int64_t end = std::min<int64_t>(n, base + 8);
    for (int64_t i = base; i < end; ++i) {
      if (x[i] >= 0.0f) v = static_cast<uint8_t>(v | (1u << (i - base)));
    }
    out[base / 8] = v;
  }
}

void unpack_signs_scalar_range(const uint8_t* packed, float* out,
                               int64_t first, int64_t n) {
  for (int64_t i = first; i < n; ++i) {
    out[i] = (packed[i / 8] >> (i % 8)) & 1 ? 1.0f : -1.0f;
  }
}

void gather_scalar(const float* x, const int32_t* indices, float* out,
                   int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = x[static_cast<size_t>(indices[i])];
  }
}

int64_t threshold_scalar(const float* x, int64_t lo, int64_t hi,
                         float threshold, int32_t* out) {
  int64_t cnt = 0;
  for (int64_t i = lo; i < hi; ++i) {
    if (std::fabs(x[i]) > threshold) out[cnt++] = static_cast<int32_t>(i);
  }
  return cnt;
}

void transpose_scalar(const float* in, int64_t m, int64_t n, float* out,
                      int64_t j0, int64_t j1) {
  for (int64_t j = j0; j < j1; ++j) {
    for (int64_t i = 0; i < m; ++i) out[j * m + i] = in[i * n + j];
  }
}

inline uint64_t rotl64(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Rng::next_u64 and Rng::uniform on each lane in turn.
void xoshiro_uniforms4_scalar(uint64_t (&s)[4][4], double* out,
                              int64_t count) {
  for (int k = 0; k < 4; ++k) {
    uint64_t s0 = s[0][k], s1 = s[1][k], s2 = s[2][k], s3 = s[3][k];
    for (int64_t j = 0; j < count; ++j) {
      const uint64_t result = rotl64(s0 + s3, 23) + s0;
      const uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = rotl64(s3, 45);
      out[k * count + j] = static_cast<double>(result >> 11) * 0x1.0p-53;
    }
    s[0][k] = s0;
    s[1][k] = s1;
    s[2][k] = s2;
    s[3][k] = s3;
  }
}

// ------------------------------------------------------- SWAR pack/unpack
// 8 code bytes fold into 8*B contiguous bits (and back) with three
// merge-adjacent-fields steps; field masks are compile-time constants.
// The fold reads 8 code bytes as one uint64 with byte k at bits
// [8k, 8k+8), which holds on every (little-endian) x86 host; the AVX2
// level packs and unpacks through it.

#ifdef GRACE_SIMD_AVX2

constexpr uint64_t field_mask(int width, int stride) {
  uint64_t m = 0;
  for (int pos = 0; pos < 64; pos += stride) {
    m |= (width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1) << pos;
  }
  return m;
}

template <int B>
inline uint64_t swar_fold8(uint64_t w) {
  w &= field_mask(B, 8);
  w = (w | (w >> (8 - B))) & field_mask(2 * B, 16);
  w = (w | (w >> (16 - 2 * B))) & field_mask(4 * B, 32);
  w = (w | (w >> (32 - 4 * B))) & field_mask(8 * B, 64);
  return w;  // low 8*B bits hold codes 0..7 LSB-first
}

template <int B>
inline uint64_t swar_unfold8(uint64_t w) {
  w &= field_mask(8 * B, 64);
  w = (w | (w << (32 - 4 * B))) & field_mask(4 * B, 32);
  w = (w | (w << (16 - 2 * B))) & field_mask(2 * B, 16);
  w = (w | (w << (8 - B))) & field_mask(B, 8);
  return w;  // one code per byte
}

template <int B>
void pack_swar(const uint8_t* codes, uint8_t* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, codes + i, 8);
    w = swar_fold8<B>(w);
    std::memcpy(out + (i / 8) * B, &w, B);
  }
  if (i < n) pack_scalar_range(codes, out, i, n, B);
}

template <int B>
void unpack_swar(const uint8_t* packed, uint8_t* codes, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, packed + (i / 8) * B, B);
    w = swar_unfold8<B>(w);
    std::memcpy(codes + i, &w, 8);
  }
  if (i < n) unpack_scalar_range(packed, codes, i, n, B);
}

// ----------------------------------------------------------- AVX2 kernels

void quantize_avx2(const float* x, uint8_t* codes, int64_t n, float scale,
                   int levels) {
  const float flevels = static_cast<float>(levels);
  const auto mid = static_cast<uint8_t>(levels / 2);
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 vflev = _mm256_set1_ps(flevels);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256i vmid = _mm256_set1_epi32(levels / 2);
  // packus interleaves 128-bit lanes; this permutation restores order.
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int g = 0; g < 4; ++g) {
      const __m256 v = _mm256_loadu_ps(x + i + 8 * g);
      const __m256 t = _mm256_mul_ps(
          _mm256_mul_ps(_mm256_add_ps(_mm256_div_ps(v, vscale), vone), vhalf),
          vflev);
      const __m256 nan_mask = _mm256_cmp_ps(t, t, _CMP_UNORD_Q);
      // max/min return the second operand on NaN, so NaN lanes come out 0
      // here and are overwritten by the mid-code blend below.
      const __m256 u = _mm256_add_ps(
          _mm256_min_ps(_mm256_max_ps(t, vzero), vflev), vhalf);
      const __m256i ci = _mm256_cvttps_epi32(u);
      q[g] = _mm256_blendv_epi8(ci, vmid, _mm256_castps_si256(nan_mask));
    }
    const __m256i p01 = _mm256_packus_epi32(q[0], q[1]);
    const __m256i p23 = _mm256_packus_epi32(q[2], q[3]);
    const __m256i b =
        _mm256_permutevar8x32_epi32(_mm256_packus_epi16(p01, p23), perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes + i), b);
  }
  for (; i < n; ++i) codes[i] = quantize_one(x[i], scale, flevels, mid);
}

void dequantize_avx2(const uint8_t* codes, float* out, int64_t n, float scale,
                     int levels) {
  const float flevels = static_cast<float>(levels);
  const __m256 vflev = _mm256_set1_ps(flevels);
  const __m256 vtwo = _mm256_set1_ps(2.0f);
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256 vscale = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    const __m256 r = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_mul_ps(_mm256_div_ps(f, vflev), vtwo), vone),
        vscale);
    _mm256_storeu_ps(out + i, r);
  }
  for (; i < n; ++i) out[i] = dequantize_one(codes[i], scale, flevels);
}

template <bool Accumulate>
void dequantize_signed_avx2(const uint8_t* codes, const uint8_t* signs,
                            float* out, int64_t n, float norm, int levels) {
  const float flevels = static_cast<float>(levels);
  const __m256 vnorm = _mm256_set1_ps(norm);
  const __m256 vflev = _mm256_set1_ps(flevels);
  const __m256i bit_of_lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i sign_bit = _mm256_set1_epi32(INT32_MIN);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 c = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    const __m256 mag = _mm256_div_ps(_mm256_mul_ps(vnorm, c), vflev);
    // Lanes whose sign bit is clear get the float sign bit flipped, which
    // is exactly the scalar negation.
    const __m256i clear = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(signs[i / 8]), bit_of_lane),
        _mm256_setzero_si256());
    __m256 v = _mm256_xor_ps(
        mag, _mm256_castsi256_ps(_mm256_and_si256(clear, sign_bit)));
    if constexpr (Accumulate) v = _mm256_add_ps(_mm256_loadu_ps(out + i), v);
    _mm256_storeu_ps(out + i, v);
  }
  dequantize_signed_scalar<Accumulate>(codes, signs, out, i, n, norm, flevels);
}

void pack1_avx2(const uint8_t* codes, uint8_t* out, int64_t n) {
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    // Bit 0 of each code byte to the MSB, then movemask gathers 32 at once.
    const __m256i v = _mm256_slli_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)), 7);
    const auto m = static_cast<uint32_t>(_mm256_movemask_epi8(v));
    std::memcpy(out + i / 8, &m, 4);
  }
  if (i < n) pack_swar<1>(codes + i, out + i / 8, n - i);
}

void pack_signs_avx2(const float* x, uint8_t* out, int64_t n) {
  const __m256 vzero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint32_t m = 0;
    for (int g = 0; g < 4; ++g) {
      // GE_OQ matches the scalar x >= 0.0f exactly: true for -0.0f, false
      // for NaN (movemask on the raw sign bit would get both wrong).
      const __m256 c =
          _mm256_cmp_ps(_mm256_loadu_ps(x + i + 8 * g), vzero, _CMP_GE_OQ);
      m |= static_cast<uint32_t>(_mm256_movemask_ps(c)) << (8 * g);
    }
    std::memcpy(out + i / 8, &m, 4);
  }
  if (i < n) pack_signs_scalar_range(x, out, i, n);
}

void unpack_signs_avx2(const uint8_t* packed, float* out, int64_t n) {
  const __m256i bit_of_lane =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256 pos = _mm256_set1_ps(1.0f);
  const __m256 neg = _mm256_set1_ps(-1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i b = _mm256_set1_epi32(packed[i / 8]);
    const __m256i hit =
        _mm256_cmpeq_epi32(_mm256_and_si256(b, bit_of_lane), bit_of_lane);
    _mm256_storeu_ps(out + i,
                     _mm256_blendv_ps(neg, pos, _mm256_castsi256_ps(hit)));
  }
  if (i < n) unpack_signs_scalar_range(packed, out, i, n);
}

void gather_avx2(const float* x, const int32_t* indices, float* out,
                 int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(indices + i));
    _mm256_storeu_ps(out + i, _mm256_i32gather_ps(x, idx, 4));
  }
  for (; i < n; ++i) out[i] = x[static_cast<size_t>(indices[i])];
}

int64_t threshold_avx2(const float* x, int64_t lo, int64_t hi, float threshold,
                       int32_t* out) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 vthr = _mm256_set1_ps(threshold);
  int64_t cnt = 0;
  int64_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m256 v = _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask);
    // GT_OQ is false on NaN, like the scalar fabs(x) > threshold.
    auto m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, vthr, _CMP_GT_OQ)));
    while (m != 0) {
      out[cnt++] = static_cast<int32_t>(i + std::countr_zero(m));
      m &= m - 1;
    }
  }
  cnt += threshold_scalar(x, i, hi, threshold, out + cnt);
  return cnt;
}

// out[c * ld_out + r] = in[r * ld_in + c] for r, c in [0, 8).
inline void transpose8x8_avx2(const float* in, int64_t ld_in, float* out,
                              int64_t ld_out) {
  __m256 r[8];
  for (int k = 0; k < 8; ++k) r[k] = _mm256_loadu_ps(in + k * ld_in);
  // Pairs of rows interleaved, then quads: for c < 4, q[c] holds column c
  // of rows 0-3 in its low half and column c + 4 in its high half, and
  // q[c + 4] the same of rows 4-7.
  __m256 t[8], q[8];
  for (int k = 0; k < 8; k += 2) {
    t[k] = _mm256_unpacklo_ps(r[k], r[k + 1]);
    t[k + 1] = _mm256_unpackhi_ps(r[k], r[k + 1]);
  }
  for (int k = 0; k < 8; k += 4) {
    q[k] = _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(1, 0, 1, 0));
    q[k + 1] = _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(3, 2, 3, 2));
    q[k + 2] = _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(1, 0, 1, 0));
    q[k + 3] = _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int c = 0; c < 4; ++c) {
    _mm256_storeu_ps(out + c * ld_out,
                     _mm256_permute2f128_ps(q[c], q[c + 4], 0x20));
    _mm256_storeu_ps(out + (c + 4) * ld_out,
                     _mm256_permute2f128_ps(q[c], q[c + 4], 0x31));
  }
}

void transpose_avx2(const float* in, int64_t m, int64_t n, float* out,
                    int64_t j0, int64_t j1) {
  int64_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    int64_t i = 0;
    for (; i + 8 <= m; i += 8) {
      transpose8x8_avx2(in + i * n + j, n, out + j * m + i, m);
    }
    for (int64_t jj = j; jj < j + 8; ++jj) {
      for (int64_t ii = i; ii < m; ++ii) out[jj * m + ii] = in[ii * n + jj];
    }
  }
  transpose_scalar(in, m, n, out, j, j1);
}

inline __m256i rotl_epi64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// One xoshiro256++ step of all four lanes; returns each lane's uniform.
inline __m256d xoshiro_step_avx2(__m256i& s0, __m256i& s1, __m256i& s2,
                                 __m256i& s3) {
  const __m256i x =
      _mm256_add_epi64(rotl_epi64(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rotl_epi64(s3, 45);
  // The draw is u * 2^-53 with u = x >> 11 = hi * 2^32 + lo, hi < 2^21.
  // Under exponents 2^31 and 2^-1 the halves read 2^31 + hi * 2^-21 and
  // 2^-1 + lo * 2^-53; taking 2^31 + 2^-1 off the first is exact (Sterbenz),
  // and the sum, u * 2^-53, is exact too: u has at most 53 bits.
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(x, 43), _mm256_set1_epi64x(0x41E0000000000000))),
      _mm256_set1_pd(0x1.0p31 + 0x1.0p-1));
  const __m256d lo = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(_mm256_srli_epi64(x, 11), _mm256_set1_epi64x(0xFFFFFFFF)),
      _mm256_set1_epi64x(0x3FE0000000000000)));
  return _mm256_add_pd(hi, lo);
}

void xoshiro_uniforms4_avx2(uint64_t (&s)[4][4], double* out, int64_t count) {
  const auto word = [&](int w) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s[w]));
  };
  __m256i s0 = word(0), s1 = word(1), s2 = word(2), s3 = word(3);
  int64_t j = 0;
  for (; j + 4 <= count; j += 4) {
    // Four steps, d[i] holding step i of every lane, transposed so that
    // each lane's four draws store as one vector.
    __m256d d[4];
    for (__m256d& di : d) di = xoshiro_step_avx2(s0, s1, s2, s3);
    const __m256d t0 = _mm256_unpacklo_pd(d[0], d[1]);
    const __m256d t1 = _mm256_unpackhi_pd(d[0], d[1]);
    const __m256d t2 = _mm256_unpacklo_pd(d[2], d[3]);
    const __m256d t3 = _mm256_unpackhi_pd(d[2], d[3]);
    _mm256_storeu_pd(out + j, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(out + count + j, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(out + 2 * count + j, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(out + 3 * count + j, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; j < count; ++j) {
    alignas(32) double d[4];
    _mm256_store_pd(d, xoshiro_step_avx2(s0, s1, s2, s3));
    for (int k = 0; k < 4; ++k) out[k * count + j] = d[k];
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s[0]), s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s[1]), s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s[2]), s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s[3]), s3);
}

#endif  // GRACE_SIMD_AVX2

#ifdef GRACE_SIMD_CLMUL

// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in
// the bit-reflected domain of 0xEDB88320. Four 128-bit lanes fold 64
// bytes per step, fold into one lane, then take 16 bytes per step; the
// last lane reduces to 32 bits by one more fold and a Barrett step. n is
// a multiple of 16 and at least 64; every load stays inside [data,
// data + n). Takes and returns the register state (the complemented CRC),
// as detail::crc32_sliced does.
uint32_t crc32_clmul(const std::byte* data, int64_t n, uint32_t state) {
  // Constants from the paper's appendix: x^(k) mod P(x), bit-reflected and
  // shifted left by one, and the Barrett pair (P', mu').
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [&](int64_t at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + at));
  };
  // a * x^k + b, with k's pair of constants in `k`.
  const auto fold = [](__m128i a, __m128i k, __m128i b) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         b);
  };

  __m128i x1 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(16), x3 = load(32), x4 = load(48);
  int64_t at = 64;
  for (; at + 64 <= n; at += 64) {
    x1 = fold(x1, k1k2, load(at));
    x2 = fold(x2, k1k2, load(at + 16));
    x3 = fold(x3, k1k2, load(at + 32));
    x4 = fold(x4, k1k2, load(at + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; at + 16 <= n; at += 16) x1 = fold(x1, k3k4, load(at));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // GRACE_SIMD_CLMUL

}  // namespace

// ----------------------------------------------------------- dispatch API

const char* level_name(Level level) {
  switch (level) {
    case Level::Scalar: return "scalar";
    case Level::Avx2: return "avx2";
  }
  return "unknown";
}

Level detected_level() {
#ifdef GRACE_SIMD_AVX2
  static const Level detected =
      __builtin_cpu_supports("avx2") ? Level::Avx2 : Level::Scalar;
  return detected;
#else
  return Level::Scalar;
#endif
}

Level active_level() {
  const int ov = g_override.load(std::memory_order_relaxed);
  return ov >= 0 ? static_cast<Level>(ov) : detected_level();
}

Level set_level_for_testing(Level level) {
  const Level effective = level == detected_level() ? level : Level::Scalar;
  g_override.store(static_cast<int>(effective), std::memory_order_relaxed);
  return effective;
}

void clear_level_for_testing() {
  g_override.store(-1, std::memory_order_relaxed);
}

// ------------------------------------------------------------ kernel API

void quantize_codes(const float* x, uint8_t* codes, int64_t n, float scale,
                    int levels) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    quantize_avx2(x, codes, n, scale, levels);
    return;
  }
#endif
  quantize_scalar(x, codes, n, scale, levels);
}

void dequantize_values(const uint8_t* codes, float* out, int64_t n,
                       float scale, int levels) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    dequantize_avx2(codes, out, n, scale, levels);
    return;
  }
#endif
  dequantize_scalar(codes, out, n, scale, levels);
}

void dequantize_signed(const uint8_t* codes, const uint8_t* signs, float* out,
                       int64_t n, float norm, int levels, bool accumulate) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    if (accumulate) {
      dequantize_signed_avx2<true>(codes, signs, out, n, norm, levels);
    } else {
      dequantize_signed_avx2<false>(codes, signs, out, n, norm, levels);
    }
    return;
  }
#endif
  const auto flevels = static_cast<float>(levels);
  if (accumulate) {
    dequantize_signed_scalar<true>(codes, signs, out, 0, n, norm, flevels);
  } else {
    dequantize_signed_scalar<false>(codes, signs, out, 0, n, norm, flevels);
  }
}

void pack_codes(const uint8_t* codes, uint8_t* out, int64_t n, int bits) {
  assert(bits == 1 || bits == 2 || bits == 4 || bits == 8);
  if (bits == 8) {
    std::memcpy(out, codes, static_cast<size_t>(n));
    return;
  }
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    switch (bits) {
      case 1: pack1_avx2(codes, out, n); return;
      case 2: pack_swar<2>(codes, out, n); return;
      default: pack_swar<4>(codes, out, n); return;
    }
  }
#endif
  pack_scalar_range(codes, out, 0, n, bits);
}

void unpack_codes(const uint8_t* packed, uint8_t* codes, int64_t n, int bits) {
  assert(bits == 1 || bits == 2 || bits == 4 || bits == 8);
  if (bits == 8) {
    std::memcpy(codes, packed, static_cast<size_t>(n));
    return;
  }
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    switch (bits) {
      case 1: unpack_swar<1>(packed, codes, n); return;
      case 2: unpack_swar<2>(packed, codes, n); return;
      default: unpack_swar<4>(packed, codes, n); return;
    }
  }
#endif
  unpack_scalar_range(packed, codes, 0, n, bits);
}

void pack_sign_bits(const float* x, uint8_t* out, int64_t n) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    pack_signs_avx2(x, out, n);
    return;
  }
#endif
  pack_signs_scalar_range(x, out, 0, n);
}

void unpack_sign_values(const uint8_t* packed, float* out, int64_t n) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    unpack_signs_avx2(packed, out, n);
    return;
  }
#endif
  unpack_signs_scalar_range(packed, out, 0, n);
}

void gather_f32(const float* x, const int32_t* indices, float* out,
                int64_t n) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    gather_avx2(x, indices, out, n);
    return;
  }
#endif
  gather_scalar(x, indices, out, n);
}

int64_t threshold_select(const float* x, int64_t lo, int64_t hi,
                         float threshold, int32_t* out) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) return threshold_avx2(x, lo, hi, threshold, out);
#endif
  return threshold_scalar(x, lo, hi, threshold, out);
}

void transpose_f32(const float* in, int64_t m, int64_t n, float* out,
                   int64_t j0, int64_t j1) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    transpose_avx2(in, m, n, out, j0, j1);
    return;
  }
#endif
  transpose_scalar(in, m, n, out, j0, j1);
}

uint32_t crc32_update(const std::byte* data, int64_t n, uint32_t state) {
#ifdef GRACE_SIMD_CLMUL
  if (n >= 64 && clmul()) {
    const int64_t folded = n & ~int64_t{15};
    state = crc32_clmul(data, folded, state);
    data += folded;
    n -= folded;
  }
#endif
  return util::detail::crc32_sliced({data, static_cast<size_t>(n)}, state);
}

void xoshiro_uniforms4(uint64_t (&state)[4][4], double* out, int64_t count) {
#ifdef GRACE_SIMD_AVX2
  if (avx2()) {
    xoshiro_uniforms4_avx2(state, out, count);
    return;
  }
#endif
  xoshiro_uniforms4_scalar(state, out, count);
}

}  // namespace grace::util::simd
