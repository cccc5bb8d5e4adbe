// Element-wise / reduction kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace grace {
namespace {

std::vector<float> v(std::initializer_list<float> init) { return init; }

TEST(Ops, FillScaleAdd) {
  auto x = v({1, 2, 3});
  ops::scale(x, 2.0f);
  EXPECT_EQ(x, v({2, 4, 6}));
  auto y = v({1, 1, 1});
  ops::add(y, x);
  EXPECT_EQ(y, v({3, 5, 7}));
  ops::sub(y, x);
  EXPECT_EQ(y, v({1, 1, 1}));
  ops::axpy(y, 3.0f, x);
  EXPECT_EQ(y, v({7, 13, 19}));
  ops::fill(y, 0.0f);
  EXPECT_EQ(y, v({0, 0, 0}));
}

TEST(Ops, Hadamard) {
  auto y = v({2, 3, 4});
  ops::hadamard(y, v({1, -2, 0}));
  EXPECT_EQ(y, v({2, -6, 0}));
}

TEST(Ops, MismatchedSizesThrow) {
  // Checked in every build, before either span is touched: a longer source
  // must not write past the destination, a shorter one must not be read
  // past its end.
  auto y = v({1, 2, 3, 4});
  const auto before = y;
  const auto longer = v({1, 2, 3, 4, 5, 6});
  const auto shorter = v({1, 2});
  for (const auto* x : {&longer, &shorter}) {
    const std::span<const float> xs(*x);
    EXPECT_THROW(ops::add(y, xs), std::invalid_argument);
    EXPECT_THROW(ops::sub(y, xs), std::invalid_argument);
    EXPECT_THROW(ops::axpy(y, 2.0f, xs), std::invalid_argument);
    EXPECT_THROW(ops::copy(y, xs), std::invalid_argument);
    EXPECT_THROW(ops::hadamard(y, xs), std::invalid_argument);
  }
  EXPECT_EQ(y, before);
}

TEST(Ops, Sum) { EXPECT_FLOAT_EQ(ops::sum(v({1, 2, 3})), 6.0f); }

TEST(Ops, Norms) {
  const auto x = v({3, -4, 0});
  EXPECT_FLOAT_EQ(ops::l1_norm(x), 7.0f);
  EXPECT_FLOAT_EQ(ops::l2_norm(x), 5.0f);
  EXPECT_FLOAT_EQ(ops::linf_norm(x), 4.0f);
}

TEST(Ops, MaxArgmax) {
  const auto x = v({1, 9, -3, 9});
  EXPECT_FLOAT_EQ(ops::max(x), 9.0f);
  EXPECT_EQ(ops::argmax(x), 1);  // first maximum
}

TEST(Ops, CountNonzero) {
  EXPECT_EQ(ops::count_nonzero(v({0, 1, 0, -2})), 2);
}

TEST(Ops, TopkAbsIndices) {
  const auto x = v({0.1f, -9.0f, 3.0f, -0.5f, 8.0f});
  auto idx = ops::topk_abs_indices(x, 2);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);  // |-9| largest
  EXPECT_EQ(idx[1], 4);  // |8| second
}

TEST(Ops, TopkAllAndNone) {
  const auto x = v({1, 2, 3});
  EXPECT_EQ(ops::topk_abs_indices(x, 0).size(), 0u);
  EXPECT_EQ(ops::topk_abs_indices(x, 3).size(), 3u);
  EXPECT_EQ(ops::topk_abs_indices(x, 99).size(), 3u);  // clamped
}

TEST(Ops, TopkTieBreaksByIndex) {
  const auto x = v({1, 1, 1, 1});
  auto idx = ops::topk_abs_indices(x, 2);
  EXPECT_EQ(idx, (std::vector<int32_t>{0, 1}));
}

TEST(Ops, ThresholdIndices) {
  const auto x = v({0.1f, -9.0f, 3.0f, -0.5f, 8.0f});
  EXPECT_EQ(ops::threshold_indices(x, 2.9f), (std::vector<int32_t>{1, 2, 4}));
  EXPECT_EQ(ops::threshold_indices(x, 100.0f).size(), 0u);
}

TEST(Ops, TopkMatchesKthLargestConsistency) {
  Rng rng(3);
  std::vector<float> x(500);
  rng.fill_normal(x, 0.0f, 1.0f);
  const int64_t k = 50;
  auto idx = ops::topk_abs_indices(x, k);
  std::vector<float> mags(x.size());
  std::transform(x.begin(), x.end(), mags.begin(),
                 [](float f) { return std::fabs(f); });
  std::nth_element(mags.begin(), mags.begin() + (k - 1), mags.end(),
                   std::greater<>());
  const float kth = mags[static_cast<size_t>(k - 1)];
  // Every selected element is >= the k-th largest magnitude.
  for (int32_t i : idx) EXPECT_GE(std::fabs(x[static_cast<size_t>(i)]), kth);
}

// topk_abs_indices' documented order by brute force: every index sorted by
// the sign-cleared bits of its value descending (|x| for non-NaN values,
// NaN above +inf), then by index.
std::vector<int32_t> topk_ranking(const std::vector<float>& x) {
  const auto key = [&](int32_t i) {
    return std::bit_cast<uint32_t>(x[static_cast<size_t>(i)]) & 0x7FFFFFFFu;
  };
  std::vector<int32_t> idx(x.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](int32_t a, int32_t b) {
    return key(a) != key(b) ? key(a) > key(b) : a < b;
  });
  return idx;
}

// The first k of the ranking (all of it for k past its end), ascending.
std::vector<int32_t> first_k(const std::vector<int32_t>& ranking, int64_t k) {
  std::vector<int32_t> out(ranking.begin(),
                           ranking.begin() + std::min(k, std::ssize(ranking)));
  std::sort(out.begin(), out.end());
  return out;
}

// Inputs that reach each branch of the radix select: normal values, heavy
// ties (a few distinct magnitudes, signs mixed, +0 and -0), mostly zeros and
// subnormals (the k-th largest key in the bottom bucket), and +-inf.
std::vector<std::vector<float>> topk_inputs(int64_t n, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<std::vector<float>> out(4, std::vector<float>(static_cast<size_t>(n)));
  rng.fill_normal(out[0], 0.0f, 1e-3f);
  const float ties[] = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -0.5f, 1.5f};
  for (int64_t i = 0; i < n; ++i) {
    const auto at = static_cast<size_t>(i);
    out[1][at] = ties[rng.next_u64() % std::size(ties)];
    const uint64_t r = rng.next_u64() % 8;
    out[2][at] = r < 5 ? (r % 2 ? -0.0f : 0.0f)
                       : (r == 5 ? denorm * static_cast<float>(rng.next_u64() % 4)
                                 : -std::numeric_limits<float>::min() * 0.5f);
    out[3][at] = r == 0 ? inf : (r == 1 ? -inf : out[0][at]);
  }
  return out;
}

void check_topk_matches_brute_force() {
  Rng rng(19);
  for (const int64_t n : {1, 2, 10, 16, 432, 4608, 5120, 150001}) {
    for (const auto& x : topk_inputs(n, rng)) {
      const std::vector<int32_t> ranking = topk_ranking(x);
      for (const int64_t k : {int64_t{1}, int64_t{2}, n / 100, n / 10, n / 2,
                              n - 1, n}) {
        if (k < 1) continue;
        SCOPED_TRACE(::testing::Message() << "n " << n << " k " << k);
        EXPECT_EQ(ops::topk_abs_indices(x, k), first_k(ranking, k));
      }
    }
  }
}

TEST(Ops, TopkMatchesBruteForce) {
  {
    const runtime::LaneLimit one(1);
    check_topk_matches_brute_force();
  }
  check_topk_matches_brute_force();
}

TEST(Ops, TopkRanksNanAboveInfinity) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const int64_t n : {int64_t{8}, int64_t{4096}}) {
    std::vector<float> x(static_cast<size_t>(n), 1.0f);
    x[5] = -inf;
    x[3] = nan;
    x[1] = -nan;
    x[7] = inf;
    EXPECT_EQ(ops::topk_abs_indices(x, 2), (std::vector<int32_t>{1, 3}));
    EXPECT_EQ(ops::topk_abs_indices(x, 3), (std::vector<int32_t>{1, 3, 5}));
    EXPECT_EQ(ops::topk_abs_indices(x, 5), (std::vector<int32_t>{0, 1, 3, 5, 7}));
    EXPECT_EQ(ops::topk_abs_indices(x, 5), first_k(topk_ranking(x), 5));
  }
}

}  // namespace
}  // namespace grace
