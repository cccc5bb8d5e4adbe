// Deterministic RNG behaviour and statistical sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "tensor/rng.h"

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
