// Element-wise / reduction kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

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

}  // namespace
}  // namespace grace
