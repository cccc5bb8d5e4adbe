// The SIMD dispatch layer's hard invariant: every vector path is BITWISE
// identical to the scalar reference, including NaN/Inf/-0.0 handling and
// ragged tails. Each test runs the kernel pinned to Scalar, then replays
// it at every level this binary+CPU can honor and memcmp's the outputs.
// A -DGRACE_NATIVE=OFF build runs the same scalar code path these tests
// pin, so it is covered by the same equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/rng.h"
#include "util/simd.h"

namespace {

using namespace grace;
namespace simd = grace::util::simd;

// Levels this binary can actually dispatch on (set_level_for_testing
// clamps unsupported requests to Scalar).
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> out;
  if (simd::set_level_for_testing(simd::Level::Avx2) == simd::Level::Avx2) {
    out.push_back(simd::Level::Avx2);
  }
  simd::clear_level_for_testing();
  return out;
}

// Restores dispatch to the default on scope exit, so a failing ASSERT in
// one test cannot leak a pinned level into the next.
struct LevelGuard {
  ~LevelGuard() { simd::clear_level_for_testing(); }
};

// Normal data with the adversarial specials planted up front: signed
// zeros, NaN, both infinities, denormals, huge magnitudes and values
// sitting right at the rounding rule's half-way boundary.
std::vector<float> edge_inputs(int64_t n) {
  std::vector<float> x(static_cast<size_t>(n));
  Rng rng(42);
  rng.fill_normal(x, 0.0f, 1.0f);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f,    -0.0f,   nan,     inf,     -inf,
                            1e-38f,  -1e-38f, 3.0e38f, -3.0e38f, 0.5f,
                            -0.5f,   0.49999997f, -0.49999997f, 1.0f, -1.0f};
  for (size_t i = 0; i < std::size(specials) && i < x.size(); ++i) {
    x[i] = specials[i];
  }
  return x;
}

// Odd sizes on purpose: every vector kernel has a scalar tail.
constexpr int64_t kSizes[] = {1, 7, 8, 9, 31, 32, 33, 1021};

}  // namespace

TEST(SimdDispatch, SetLevelClampsAndOverrides) {
  LevelGuard guard;
  for (simd::Level l : {simd::Level::Scalar, simd::Level::Avx2}) {
    const simd::Level got = simd::set_level_for_testing(l);
    // Unsupported requests clamp to Scalar; either way the override wins.
    EXPECT_TRUE(got == l || got == simd::Level::Scalar)
        << simd::level_name(got);
    EXPECT_EQ(simd::active_level(), got);
  }
  simd::clear_level_for_testing();
  EXPECT_EQ(simd::active_level(), simd::detected_level());
}

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ(simd::level_name(simd::Level::Scalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::Avx2), "avx2");
}

TEST(SimdKernels, QuantizeBitwiseEqualAcrossLevels) {
  LevelGuard guard;
  for (int64_t n : kSizes) {
    const auto x = edge_inputs(n);
    for (int levels : {1, 3, 15, 255}) {
      for (float scale : {1.0f, 0.3f, 7.5f}) {
        simd::set_level_for_testing(simd::Level::Scalar);
        std::vector<uint8_t> ref(static_cast<size_t>(n), 0xEE);
        simd::quantize_codes(x.data(), ref.data(), n, scale, levels);
        for (simd::Level l : available_levels()) {
          simd::set_level_for_testing(l);
          std::vector<uint8_t> got(static_cast<size_t>(n), 0xAA);
          simd::quantize_codes(x.data(), got.data(), n, scale, levels);
          ASSERT_EQ(std::memcmp(ref.data(), got.data(), got.size()), 0)
              << "level=" << simd::level_name(l) << " n=" << n
              << " levels=" << levels << " scale=" << scale;
        }
      }
    }
  }
}

TEST(SimdKernels, QuantizeNonFiniteIsDeterministic) {
  LevelGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x = {nan, inf, -inf, 0.0f, -0.0f};
  std::vector<uint8_t> codes(x.size());
  std::vector<simd::Level> all = {simd::Level::Scalar};
  for (simd::Level l : available_levels()) all.push_back(l);
  for (simd::Level l : all) {
    simd::set_level_for_testing(l);
    simd::quantize_codes(x.data(), codes.data(),
                         static_cast<int64_t>(x.size()), 1.0f, 255);
    // NaN -> midpoint (the zero-scale fill), +Inf -> top rail, -Inf -> 0.
    // Finite zeros land on 128: round-half-up sends t = 127.5 upward.
    EXPECT_EQ(codes[0], 127) << simd::level_name(l);
    EXPECT_EQ(codes[1], 255) << simd::level_name(l);
    EXPECT_EQ(codes[2], 0) << simd::level_name(l);
    EXPECT_EQ(codes[3], 128) << simd::level_name(l);
    EXPECT_EQ(codes[4], 128) << simd::level_name(l);
  }
}

TEST(SimdKernels, DequantizeBitwiseEqualAcrossLevels) {
  LevelGuard guard;
  for (int64_t n : kSizes) {
    std::vector<uint8_t> codes(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      codes[static_cast<size_t>(i)] = static_cast<uint8_t>((i * 37) & 0xFF);
    }
    for (int levels : {1, 15, 255}) {
      for (uint8_t& c : codes) c = static_cast<uint8_t>(c % (levels + 1));
      simd::set_level_for_testing(simd::Level::Scalar);
      std::vector<float> ref(static_cast<size_t>(n));
      simd::dequantize_values(codes.data(), ref.data(), n, 0.7f, levels);
      for (simd::Level l : available_levels()) {
        simd::set_level_for_testing(l);
        std::vector<float> got(static_cast<size_t>(n));
        simd::dequantize_values(codes.data(), got.data(), n, 0.7f, levels);
        ASSERT_EQ(std::memcmp(ref.data(), got.data(), got.size() * 4), 0)
            << "level=" << simd::level_name(l) << " n=" << n
            << " levels=" << levels;
      }
    }
  }
}

TEST(SimdKernels, DequantizeSignedBitwiseEqualAcrossLevels) {
  // QSGD's decode in both forms. The accumulator starts on the edge
  // values (signed zeros, NaN, infinities); the norms stay finite, so no
  // lane adds two NaNs, whose result sign is the operand order's choice.
  LevelGuard guard;
  for (int64_t n : kSizes) {
    std::vector<uint8_t> codes(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      codes[static_cast<size_t>(i)] = static_cast<uint8_t>((i * 37) % 65);
    }
    std::vector<uint8_t> signs(static_cast<size_t>((n + 7) / 8));
    for (size_t b = 0; b < signs.size(); ++b) {
      signs[b] = static_cast<uint8_t>(b * 101 + 0xB4);
    }
    codes[0] = 0;  // code 0 with sign bit 0 clear (0xB4 has bit 0 clear)
    if (n > 1) codes[1] = 0;  // ... and with sign bit 1 clear as well
    const std::vector<float> acc0 = edge_inputs(n);  // +0.0f, -0.0f first
    for (float norm : {0.0f, 0.7f, 1e-30f, 3.0e38f}) {
      for (int levels : {1, 64, 255}) {
        for (bool accumulate : {false, true}) {
          simd::set_level_for_testing(simd::Level::Scalar);
          std::vector<float> ref = acc0;
          simd::dequantize_signed(codes.data(), signs.data(), ref.data(), n,
                                  norm, levels, accumulate);
          // Written: code 0 with a clear bit is -0.0f. Accumulated:
          // +0 + -0 is +0 and -0 + -0 stays -0.
          EXPECT_EQ(ref[0], 0.0f);
          EXPECT_NE(std::signbit(ref[0]), accumulate);
          if (n > 1) {
            EXPECT_TRUE(std::signbit(ref[1]) && ref[1] == 0.0f);
          }
          for (simd::Level l : available_levels()) {
            simd::set_level_for_testing(l);
            std::vector<float> got = acc0;
            simd::dequantize_signed(codes.data(), signs.data(), got.data(),
                                    n, norm, levels, accumulate);
            ASSERT_EQ(std::memcmp(ref.data(), got.data(), got.size() * 4), 0)
                << "level=" << simd::level_name(l) << " n=" << n
                << " norm=" << norm << " levels=" << levels
                << " accumulate=" << accumulate;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, PackBitwiseEqualAndRoundTrips) {
  LevelGuard guard;
  for (int64_t n : kSizes) {
    for (int bits : {1, 2, 4, 8}) {
      std::vector<uint8_t> codes(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        codes[static_cast<size_t>(i)] =
            static_cast<uint8_t>((i * 41 + 3) & ((1 << bits) - 1));
      }
      const size_t packed_bytes =
          static_cast<size_t>((n * bits + 7) / 8);
      simd::set_level_for_testing(simd::Level::Scalar);
      std::vector<uint8_t> ref(packed_bytes, 0xEE);
      simd::pack_codes(codes.data(), ref.data(), n, bits);
      std::vector<uint8_t> back(static_cast<size_t>(n), 0xAA);
      simd::unpack_codes(ref.data(), back.data(), n, bits);
      ASSERT_EQ(back, codes) << "scalar round trip n=" << n << " bits=" << bits;
      for (simd::Level l : available_levels()) {
        simd::set_level_for_testing(l);
        std::vector<uint8_t> got(packed_bytes, 0xAA);
        simd::pack_codes(codes.data(), got.data(), n, bits);
        ASSERT_EQ(got, ref) << "pack level=" << simd::level_name(l)
                            << " n=" << n << " bits=" << bits;
        std::vector<uint8_t> unp(static_cast<size_t>(n), 0x55);
        simd::unpack_codes(got.data(), unp.data(), n, bits);
        ASSERT_EQ(unp, codes) << "unpack level=" << simd::level_name(l)
                              << " n=" << n << " bits=" << bits;
      }
    }
  }
}

TEST(SimdKernels, PackSignsSemanticsAndEquality) {
  LevelGuard guard;
  for (int64_t n : kSizes) {
    const auto x = edge_inputs(n);
    const size_t bytes = static_cast<size_t>((n + 7) / 8);
    simd::set_level_for_testing(simd::Level::Scalar);
    std::vector<uint8_t> ref(bytes, 0xEE);
    simd::pack_sign_bits(x.data(), ref.data(), n);
    // Scalar semantics: bit = (x >= 0), so -0.0 -> 1 and NaN -> 0.
    for (int64_t i = 0; i < n; ++i) {
      const bool bit =
          (ref[static_cast<size_t>(i / 8)] >> (i % 8)) & 1;
      EXPECT_EQ(bit, x[static_cast<size_t>(i)] >= 0.0f) << "i=" << i;
    }
    for (simd::Level l : available_levels()) {
      simd::set_level_for_testing(l);
      std::vector<uint8_t> got(bytes, 0xAA);
      simd::pack_sign_bits(x.data(), got.data(), n);
      ASSERT_EQ(got, ref) << "level=" << simd::level_name(l) << " n=" << n;
      std::vector<float> vals(static_cast<size_t>(n));
      simd::unpack_sign_values(got.data(), vals.data(), n);
      simd::set_level_for_testing(simd::Level::Scalar);
      std::vector<float> vref(static_cast<size_t>(n));
      simd::unpack_sign_values(ref.data(), vref.data(), n);
      ASSERT_EQ(std::memcmp(vals.data(), vref.data(), vals.size() * 4), 0)
          << "unpack_signs level=" << simd::level_name(l) << " n=" << n;
    }
  }
}

TEST(SimdKernels, GatherEqualAcrossLevels) {
  LevelGuard guard;
  const auto x = edge_inputs(4096);
  for (int64_t n : kSizes) {
    std::vector<int32_t> idx(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      idx[static_cast<size_t>(i)] = static_cast<int32_t>((i * 131) % 4096);
    }
    simd::set_level_for_testing(simd::Level::Scalar);
    std::vector<float> ref(static_cast<size_t>(n));
    simd::gather_f32(x.data(), idx.data(), ref.data(), n);
    for (simd::Level l : available_levels()) {
      simd::set_level_for_testing(l);
      std::vector<float> got(static_cast<size_t>(n));
      simd::gather_f32(x.data(), idx.data(), got.data(), n);
      ASSERT_EQ(std::memcmp(ref.data(), got.data(), got.size() * 4), 0)
          << "level=" << simd::level_name(l) << " n=" << n;
    }
  }
}

TEST(SimdKernels, ThresholdSelectEqualAcrossLevels) {
  LevelGuard guard;
  const auto x = edge_inputs(2048);
  // Thresholds chosen to hit exact-equality (excluded: strict >) and the
  // NaN lane (compares false).
  for (float thr : {0.0f, 0.5f, 1.0f, 3.0e38f}) {
    for (int64_t lo : {int64_t{0}, int64_t{3}}) {
      const int64_t hi = 2048 - 5;
      simd::set_level_for_testing(simd::Level::Scalar);
      std::vector<int32_t> ref(static_cast<size_t>(hi - lo));
      const int64_t nref =
          simd::threshold_select(x.data(), lo, hi, thr, ref.data());
      for (simd::Level l : available_levels()) {
        simd::set_level_for_testing(l);
        std::vector<int32_t> got(static_cast<size_t>(hi - lo), -7);
        const int64_t ngot =
            simd::threshold_select(x.data(), lo, hi, thr, got.data());
        ASSERT_EQ(ngot, nref) << "level=" << simd::level_name(l)
                              << " thr=" << thr << " lo=" << lo;
        ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                              static_cast<size_t>(nref) * 4),
                  0)
            << "level=" << simd::level_name(l) << " thr=" << thr;
      }
    }
  }
}

TEST(SimdKernels, TransposeBitwiseEqualToTheScalarLoop) {
  LevelGuard guard;
  constexpr uint32_t kGuard = 0x7FA5A5A5u;  // a NaN payload no input holds
  Rng rng(17);
  // cnn-small's conv operands (27x256, 144x64) and every tile edge.
  for (const auto& [m, n] : {std::pair<int64_t, int64_t>{1, 1}, {7, 9}, {8, 8},
                             {33, 17}, {27, 256}, {144, 64}}) {
    // Random bit patterns: NaN payloads, -0 and subnormals included.
    std::vector<uint32_t> in(static_cast<size_t>(m * n));
    for (auto& v : in) v = static_cast<uint32_t>(rng.next_u64());
    std::vector<uint32_t> want(in.size());
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        want[static_cast<size_t>(j * m + i)] = in[static_cast<size_t>(i * n + j)];
      }
    }
    const auto* src = reinterpret_cast<const float*>(in.data());
    // The whole output, and ranges of output rows that start and end off
    // the 8-row tiles, as parallel_for hands them out.
    const std::pair<int64_t, int64_t> ranges[] = {
        {0, n}, {std::min<int64_t>(3, n), n}, {0, std::max<int64_t>(0, n - 2)}};
    std::vector<simd::Level> levels = available_levels();
    levels.push_back(simd::Level::Scalar);
    for (simd::Level l : levels) {
      simd::set_level_for_testing(l);
      for (const auto& [j0, j1] : ranges) {
        std::vector<uint32_t> got(in.size() + 1, kGuard);
        simd::transpose_f32(src, m, n, reinterpret_cast<float*>(got.data()), j0, j1);
        SCOPED_TRACE(::testing::Message() << "level=" << simd::level_name(l) << " "
                                          << m << "x" << n << " rows " << j0 << ".." << j1);
        EXPECT_EQ(got.back(), kGuard);
        for (int64_t j = 0; j < n; ++j) {
          for (int64_t i = 0; i < m; ++i) {
            const auto at = static_cast<size_t>(j * m + i);
            ASSERT_EQ(got[at], j >= j0 && j < j1 ? want[at] : kGuard) << j << "," << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, XoshiroLanesBitwiseEqualToTheScalarLanes) {
  LevelGuard guard;
  Rng rng(19);
  for (int64_t count : {1, 3, 4, 5, 64, 67}) {
    uint64_t start[4][4];
    for (auto& word : start) {
      for (uint64_t& v : word) v = rng.next_u64();
    }
    start[3][2] = ~uint64_t{0};  // carries through every add and rotate
    uint64_t want_state[4][4];
    std::memcpy(want_state, start, sizeof(start));
    std::vector<double> want(static_cast<size_t>(4 * count));
    simd::set_level_for_testing(simd::Level::Scalar);
    simd::xoshiro_uniforms4(want_state, want.data(), count);
    for (simd::Level l : available_levels()) {
      simd::set_level_for_testing(l);
      uint64_t state[4][4];
      std::memcpy(state, start, sizeof(start));
      std::vector<double> got(want.size() + 1, -1.0);
      simd::xoshiro_uniforms4(state, got.data(), count);
      SCOPED_TRACE(::testing::Message() << "level=" << simd::level_name(l)
                                        << " count=" << count);
      EXPECT_EQ(got.back(), -1.0);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(state, want_state, sizeof(state)), 0);
    }
  }
}
