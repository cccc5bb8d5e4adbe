// The GRACE helper API: quantize/dequantize, sparsify/desparsify,
// pack/unpack.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/helper_ops.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace grace::core {
namespace {

TEST(Quantize, RoundTripErrorBounded) {
  Rng rng(1);
  std::vector<float> x(256);
  rng.fill_normal(x, 0.0f, 2.0f);
  for (int bits : {2, 4, 8}) {
    auto q = quantize(x, bits);
    std::vector<float> restored(x.size());
    dequantize(q, restored);
    // Uniform quantization error <= half a step.
    const float step = 2.0f * q.scale / static_cast<float>((1 << bits) - 1);
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_LE(std::fabs(restored[i] - x[i]), step * 0.5f + 1e-6f)
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(Quantize, MoreBitsNeverWorse) {
  Rng rng(2);
  std::vector<float> x(512);
  rng.fill_normal(x, 0.0f, 1.0f);
  double prev_err = 1e30;
  for (int bits : {1, 2, 4, 8}) {
    auto q = quantize(x, bits);
    std::vector<float> restored(x.size());
    dequantize(q, restored);
    double err = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      err += std::pow(static_cast<double>(restored[i]) - x[i], 2);
    }
    EXPECT_LE(err, prev_err + 1e-9);
    prev_err = err;
  }
}

TEST(Quantize, ZeroTensor) {
  std::vector<float> x(8, 0.0f);
  auto q = quantize(x, 4);
  std::vector<float> restored(x.size());
  dequantize(q, restored);
  for (float v : restored) EXPECT_EQ(v, 0.0f);
}

TEST(Quantize, ExplicitScaleClampsOutliers) {
  std::vector<float> x{-10.0f, 0.0f, 10.0f};
  auto q = quantize(x, 8, /*scale=*/1.0f);
  std::vector<float> restored(3);
  dequantize(q, restored);
  EXPECT_NEAR(restored[0], -1.0f, 0.01f);
  EXPECT_NEAR(restored[2], 1.0f, 0.01f);
}

TEST(Quantize, NonFiniteInputsGetDeterministicCodes) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x{nan, inf, -inf, 0.5f};
  // Explicit scale: the auto scale (linf norm) would be inf here.
  auto q = quantize(x, 8, /*scale=*/1.0f);
  auto codes = q.codes.u8();
  EXPECT_EQ(codes[0], 127);  // NaN -> midpoint, same as the zero-scale fill
  EXPECT_EQ(codes[1], 255);  // +Inf -> top rail
  EXPECT_EQ(codes[2], 0);    // -Inf -> bottom rail
  std::vector<float> restored(x.size());
  dequantize(q, restored);
  EXPECT_TRUE(std::isfinite(restored[0]));
  EXPECT_FLOAT_EQ(restored[1], 1.0f);
  EXPECT_FLOAT_EQ(restored[2], -1.0f);
}

TEST(Quantize, NonFiniteScaleFallsBackToMidpoint) {
  // A NaN/inf scale (e.g. from a gradient that already blew up) must not
  // poison the codes: it behaves like the degenerate zero-scale case.
  const std::vector<float> x{-1.0f, 0.0f, 1.0f};
  for (float scale : {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity(), 0.0f}) {
    auto q = quantize(x, 8, scale);
    for (uint8_t c : q.codes.u8()) EXPECT_EQ(c, 127) << "scale=" << scale;
  }
}

TEST(Quantize, RejectsOutOfRangeBits) {
  const std::vector<float> x{1.0f};
  EXPECT_THROW(quantize(x, 0), std::invalid_argument);
  EXPECT_THROW(quantize(x, 9), std::invalid_argument);
  EXPECT_THROW(quantize(x, -1), std::invalid_argument);
}

TEST(Pack, RejectsUnsupportedBitWidths) {
  const std::vector<uint8_t> codes{1, 0, 1};
  for (int bits : {0, 3, 5, 6, 7, 9}) {
    EXPECT_THROW(pack(codes, bits), std::invalid_argument) << "bits=" << bits;
  }
  Tensor packed = pack(codes, 1);
  for (int bits : {0, 3, 16}) {
    EXPECT_THROW(unpack(packed, bits, 3), std::invalid_argument)
        << "bits=" << bits;
  }
}

TEST(Sparsify, RoundTrip) {
  const std::vector<float> x{1, 2, 3, 4, 5, 6};
  const std::vector<int32_t> idx{1, 4};
  Tensor values = sparsify(x, idx);
  ASSERT_EQ(values.numel(), 2);
  EXPECT_FLOAT_EQ(values.f32()[0], 2.0f);
  EXPECT_FLOAT_EQ(values.f32()[1], 5.0f);
  Tensor dense = desparsify(values, Tensor::from_i32(idx), Shape{{2, 3}});
  EXPECT_EQ(dense.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(dense.f32()[1], 2.0f);
  EXPECT_FLOAT_EQ(dense.f32()[4], 5.0f);
  EXPECT_FLOAT_EQ(dense.f32()[0], 0.0f);
  EXPECT_EQ(ops::count_nonzero(dense.f32()), 2);
}

TEST(Sparsify, EmptySelection) {
  const std::vector<float> x{1, 2};
  Tensor dense =
      desparsify(sparsify(x, {}), Tensor::from_i32({}), Shape{{2}});
  EXPECT_EQ(ops::count_nonzero(dense.f32()), 0);
}

TEST(Sparsify, DesparsifyRejectsPartsOffTheShape) {
  // Every sparsifier's decode scatters through desparsify, so it checks
  // what a CRC-valid frame may still get wrong.
  const Tensor values = Tensor::from(std::vector<float>{1.0f, 2.0f});
  const Shape shape{{2, 3}};
  auto indices = [](std::vector<int32_t> idx) { return Tensor::from_i32(idx); };
  EXPECT_THROW(desparsify(values, indices({1, 6}), shape), std::runtime_error);
  EXPECT_THROW(desparsify(values, indices({-1, 4}), shape), std::runtime_error);
  EXPECT_THROW(desparsify(values, indices({1}), shape), std::runtime_error);
  // Two u8 bytes would be read as two int32 indices.
  EXPECT_THROW(desparsify(values, Tensor(DType::U8, Shape{{2}}), shape),
               std::runtime_error);
  EXPECT_NO_THROW(desparsify(values, indices({0, 5}), shape));
}

class PackTest : public ::testing::TestWithParam<int> {};

TEST_P(PackTest, RoundTripAllCodes) {
  const int bits = GetParam();
  const int max_code = (1 << bits) - 1;
  std::vector<uint8_t> codes;
  for (int n : {1, 7, 8, 9, 64, 65}) {
    codes.clear();
    Rng rng(static_cast<uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      codes.push_back(static_cast<uint8_t>(rng.uniform_int(max_code + 1)));
    }
    Tensor packed = pack(codes, bits);
    // Packed size is exactly ceil(n * bits / 8) bytes.
    EXPECT_EQ(packed.size_bytes(),
              static_cast<size_t>((n * bits + 7) / 8));
    auto restored = unpack(packed, bits, n);
    EXPECT_EQ(restored, codes) << "bits=" << bits << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, PackTest, ::testing::Values(1, 2, 4, 8));

TEST(PackSigns, RoundTrip) {
  const std::vector<float> x{-1.5f, 0.0f, 2.0f, -0.1f, 3.0f};
  Tensor packed = pack_signs(x);
  EXPECT_EQ(packed.size_bytes(), 1u);  // 5 bits fit one byte
  std::vector<float> signs(5);
  unpack_signs(packed, signs);
  EXPECT_EQ(signs, (std::vector<float>{-1, 1, 1, -1, 1}));
}

}  // namespace
}  // namespace grace::core
