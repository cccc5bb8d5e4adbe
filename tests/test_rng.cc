// Deterministic RNG behaviour and statistical sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <string>
#include <vector>

#include "tensor/rng.h"
#include "util/simd.h"

namespace grace {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamMatchesGoldenValues) {
  // xoshiro256++ seeded by SplitMix64, recorded before next_u64 and
  // uniform moved inline: every stochastic compressor's draws, and so
  // every parameters_crc32 pin, rest on this exact stream.
  const uint64_t golden[] = {
      0xd0764d4f4476689fULL, 0x519e4174576f3791ULL, 0xfbe07cfb0c24ed8cULL,
      0xb37d9f600cd835b8ULL, 0xcb231c3874846a73ULL, 0x968d9f004e50de7dULL,
      0x201718ff221a3556ULL, 0x9ae94e070ed8cb46ULL};
  Rng rng(42);
  for (uint64_t want : golden) EXPECT_EQ(rng.next_u64(), want);
  // uniform() is the top 53 bits of one draw.
  Rng u(42);
  EXPECT_EQ(u.uniform(), static_cast<double>(golden[0] >> 11) * 0x1.0p-53);
  EXPECT_EQ(u.uniform(), 0x1.467905d15dbccp-2);
}

// P(x), the characteristic polynomial of xoshiro256's state update, as
// words from x^0 up (x^256 implied). Berlekamp-Massey over one state bit's
// sequence finds it; DESIGN.md §9 tells how.
constexpr std::array<uint64_t, 4> kCharPoly = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
    0x0003c03c3f3ecb19ULL};

using Poly = std::array<uint64_t, 4>;

// a * b mod P over GF(2).
Poly mul_mod_p(Poly a, const Poly& b) {
  Poly r{};
  for (int i = 0; i < 256; ++i) {
    if ((b[static_cast<size_t>(i / 64)] >> (i % 64)) & 1) {
      for (size_t w = 0; w < 4; ++w) r[w] ^= a[w];
    }
    const bool carry = a[3] >> 63;  // a *= x, then reduce x^256
    for (size_t w = 3; w > 0; --w) a[w] = (a[w] << 1) | (a[w - 1] >> 63);
    a[0] <<= 1;
    if (carry) {
      for (size_t w = 0; w < 4; ++w) a[w] ^= kCharPoly[w];
    }
  }
  return r;
}

TEST(Rng, JumpPolynomialsFollowFromTheCharacteristicPolynomial) {
  // x^(2^k) by k squarings of x: k = 12 is Rng's 4096-step jump, and
  // k = 128 must be xoshiro256's published JUMP constant.
  const Poly jump4096 = {Rng::kJump4096[0], Rng::kJump4096[1],
                         Rng::kJump4096[2], Rng::kJump4096[3]};
  const Poly published = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                          0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  Poly p = {2, 0, 0, 0};
  for (int k = 1; k <= 128; ++k) {
    p = mul_mod_p(p, p);
    if (k == 12) {
      EXPECT_EQ(p, jump4096);
    }
  }
  EXPECT_EQ(p, published);
}

TEST(Rng, Jump4096EqualsFourThousandNinetySixSteps) {
  for (uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL, 0x9e3779b97f4a7c15ULL,
                        ~0ULL}) {
    Rng jumped(seed), stepped(seed);
    jumped.jump(Rng::kJump4096);
    for (int i = 0; i < 4096; ++i) stepped.next_u64();
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(jumped.next_u64(), stepped.next_u64()) << seed;
    }
  }
}

// Rng::uniforms is the sequential stream whatever the level: at Avx2 whole
// groups of kLaneGroup run on four jumped lanes, and the rest in sequence.
TEST(Rng, UniformsMatchSequentialDraws) {
  struct LevelReset {
    ~LevelReset() { util::simd::clear_level_for_testing(); }
  } reset;
  constexpr int64_t kGroup = Rng::kLaneGroup;
  for (util::simd::Level level :
       {util::simd::Level::Scalar, util::simd::detected_level()}) {
    util::simd::set_level_for_testing(level);
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{4095}, kGroup - 1,
                      kGroup, kGroup + 1, 3 * kGroup + 17, int64_t{196608}}) {
      SCOPED_TRACE(std::string(util::simd::level_name(level)) + " n=" +
                   std::to_string(n));
      Rng lanes(static_cast<uint64_t>(n) + 3), loop(static_cast<uint64_t>(n) + 3);
      std::vector<double> got(static_cast<size_t>(n), -1.0);
      lanes.uniforms(got);
      std::vector<double> want(static_cast<size_t>(n));
      for (double& u : want) u = loop.uniform();
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end(),
                             [](double a, double b) {
                               return std::bit_cast<uint64_t>(a) ==
                                      std::bit_cast<uint64_t>(b);
                             }));
      EXPECT_EQ(lanes.next_u64(), loop.next_u64());
    }
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values reachable
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(3);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SampleIndicesDistinctSortedInRange) {
  Rng rng(5);
  auto idx = rng.sample_indices(100, 20);
  ASSERT_EQ(idx.size(), 20u);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
  std::set<int32_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (int32_t i : idx) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 100);
  }
}

TEST(Rng, SampleIndicesKEqualsN) {
  Rng rng(5);
  auto idx = rng.sample_indices(8, 8);
  ASSERT_EQ(idx.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(idx[static_cast<size_t>(i)], i);
}

TEST(Rng, SampleIndicesKLargerThanNClamps) {
  Rng rng(5);
  EXPECT_EQ(rng.sample_indices(4, 100).size(), 4u);
}

TEST(Rng, FillNormalWritesEveryElement) {
  Rng rng(13);
  std::vector<float> v(64, 1e9f);
  rng.fill_normal(v, 0.0f, 1.0f);
  for (float x : v) EXPECT_LT(std::abs(x), 10.0f);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int64_t> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(std::span<int64_t>(v));
  std::vector<int64_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

}  // namespace
}  // namespace grace
