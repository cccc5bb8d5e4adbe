// Tensor, Shape and dtype-storage behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/tensor.h"

namespace grace {
namespace {

TEST(Shape, NumelAndRank) {
  EXPECT_EQ(Shape({}).numel(), 1);
  EXPECT_EQ(Shape({}).rank(), 0);
  EXPECT_EQ(Shape({4}).numel(), 4);
  EXPECT_EQ(Shape({2, 3, 4}).numel(), 24);
  EXPECT_EQ(Shape({2, 3, 4}).rank(), 3);
}

TEST(Shape, AsMatrix) {
  EXPECT_EQ(Shape({6, 4}).as_matrix(), Shape({6, 4}));
  EXPECT_EQ(Shape({8, 3, 3, 3}).as_matrix(), Shape({8, 27}));
  EXPECT_EQ(Shape({5}).as_matrix(), Shape({5, 1}));
  EXPECT_EQ(Shape({}).as_matrix(), Shape({1, 1}));
}

TEST(Shape, ToString) { EXPECT_EQ(Shape({2, 3}).to_string(), "[2,3]"); }

TEST(Tensor, ZeroInitialized) {
  Tensor t = Tensor::zeros(Shape{{5}});
  for (float v : t.f32()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, ForOverwriteLeavesTheStorageToTheKernel) {
  Tensor t = Tensor::for_overwrite(DType::F32, Shape({3, 5}));
  EXPECT_EQ(t.shape(), Shape({3, 5}));
  EXPECT_EQ(t.size_bytes(), 60u);
#ifdef __SANITIZE_ADDRESS__
  // A sanitizer build fills it with NaN bytes, so an element a kernel
  // skips fails a bitwise compare.
  for (float v : t.f32()) EXPECT_TRUE(std::isnan(v));
#endif
  // Zero-filled tensors stay zero-filled, also in recycled storage.
  t = Tensor();
  const Tensor zeros(DType::F32, Shape({3, 5}));
  for (float v : zeros.f32()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FromValues) {
  const float vals[] = {1.0f, -2.0f, 3.0f};
  Tensor t = Tensor::from(vals);
  ASSERT_EQ(t.numel(), 3);
  EXPECT_EQ(t.f32()[1], -2.0f);
  EXPECT_EQ(t.size_bytes(), 12u);
}

TEST(Tensor, DTypeSizes) {
  EXPECT_EQ(Tensor(DType::U8, Shape{{10}}).size_bytes(), 10u);
  EXPECT_EQ(Tensor(DType::I32, Shape{{10}}).size_bytes(), 40u);
  EXPECT_EQ(Tensor(DType::F32, Shape{{10}}).size_bytes(), 40u);
}

TEST(Tensor, Reshaped) {
  Tensor t = Tensor::zeros(Shape{{2, 6}});
  Tensor r = t.reshaped(Shape{{3, 4}});
  EXPECT_EQ(r.shape(), Shape({3, 4}));
  EXPECT_EQ(r.numel(), t.numel());
}

// Both checks hold in every build, not only under assert: a decoder that
// trusts a frame's part would otherwise read a part of another dtype, or
// build a tensor whose shape outruns its storage.
TEST(Tensor, ViewOfAnotherDtypeThrows) {
  Tensor t = Tensor::zeros(Shape{{4}});
  EXPECT_THROW(t.u8(), std::runtime_error);
  EXPECT_THROW(std::as_const(t).i32(), std::runtime_error);
  EXPECT_THROW(Tensor(DType::U8, Shape{{4}}).f32(), std::runtime_error);
  EXPECT_EQ(t.f32().size(), 4u);
}

TEST(Tensor, ReshapeToAnotherElementCountThrows) {
  Tensor t = Tensor::zeros(Shape{{3, 4}});
  EXPECT_THROW(t.reshaped(Shape{{5, 3}}), std::runtime_error);
  EXPECT_THROW(t.set_shape(Shape{{13}}), std::runtime_error);
  EXPECT_EQ(t.shape(), Shape({3, 4}));
}

TEST(Tensor, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::scalar(2.5f).item(), 2.5f);
}

TEST(Tensor, Full) {
  Tensor t = Tensor::full(Shape{{4}}, 7.0f);
  for (float v : t.f32()) EXPECT_EQ(v, 7.0f);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a = Tensor::full(Shape{{3}}, 1.0f);
  Tensor b = a;
  b.f32()[0] = 9.0f;
  EXPECT_EQ(a.f32()[0], 1.0f);
}

}  // namespace
}  // namespace grace
