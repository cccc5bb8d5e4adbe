// Error-feedback memory: Eq. 4 semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/memory.h"
#include "tensor/ops.h"

namespace grace::core {
namespace {

// absorb (a round that transmitted nothing) stores phi(m, g) itself, which
// must be bitwise what update with an all-zero decompression stores:
// x - (+0) is x, -0 and NaN included.
TEST(ResidualMemory, AbsorbMatchesUpdateWithZeros) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor g = Tensor::from(
      std::vector<float>{-0.0f, 0.0f, nan, -nan, inf, -inf, 1e-45f, -3.5f});
  const Tensor seed = Tensor::from(
      std::vector<float>{-0.0f, -0.0f, 1.0f, nan, 2.0f, -0.0f, -1e-45f, 0.5f});
  for (const float gamma : {1.0f, 0.5f}) {
    for (const bool with_residual : {false, true}) {
      ResidualMemory absorbed(0.9f, gamma);
      ResidualMemory updated(0.9f, gamma);
      if (with_residual) {
        absorbed.install("t", seed);
        updated.install("t", seed);
      }
      for (int round = 0; round < 2; ++round) {
        absorbed.absorb(g, "t");
        updated.update("t", updated.compensate(g, "t"), Tensor::zeros_like(g));
        const auto a = absorbed.residual("t")->bytes();
        const auto u = updated.residual("t")->bytes();
        EXPECT_TRUE(std::equal(a.begin(), a.end(), u.begin(), u.end()))
            << "gamma " << gamma << ", residual " << with_residual
            << ", round " << round;
      }
    }
  }
}

TEST(ResidualMemory, FirstCompensateIsGammaScaledGradient) {
  ResidualMemory mem(1.0f, 2.0f);
  Tensor g = Tensor::from(std::vector<float>{1, -1});
  Tensor out = mem.compensate(g, "t");
  EXPECT_FLOAT_EQ(out.f32()[0], 2.0f);
  EXPECT_FLOAT_EQ(out.f32()[1], -2.0f);
}

TEST(ResidualMemory, UpdateStoresResidual) {
  // psi(m, g, g~) = phi(m, g) - Q^-1(g~)
  ResidualMemory mem(1.0f, 1.0f);
  Tensor g = Tensor::from(std::vector<float>{4, 6});
  Tensor phi = mem.compensate(g, "t");
  Tensor decompressed = Tensor::from(std::vector<float>{4, 0});  // lossy
  mem.update("t", phi, decompressed);
  const Tensor* r = mem.residual("t");
  ASSERT_NE(r, nullptr);
  EXPECT_FLOAT_EQ(r->f32()[0], 0.0f);
  EXPECT_FLOAT_EQ(r->f32()[1], 6.0f);

  // Next compensate adds beta * residual.
  Tensor g2 = Tensor::from(std::vector<float>{1, 1});
  Tensor phi2 = mem.compensate(g2, "t");
  EXPECT_FLOAT_EQ(phi2.f32()[0], 1.0f);
  EXPECT_FLOAT_EQ(phi2.f32()[1], 7.0f);
}

TEST(ResidualMemory, BetaDecaysResidual) {
  ResidualMemory mem(0.5f, 1.0f);
  Tensor g = Tensor::from(std::vector<float>{0, 0});
  Tensor phi = mem.compensate(g, "t");
  mem.update("t", phi, Tensor::from(std::vector<float>{-2, -4}));
  // residual = {2, 4}; next phi = 0.5*residual + g
  Tensor phi2 = mem.compensate(g, "t");
  EXPECT_FLOAT_EQ(phi2.f32()[0], 1.0f);
  EXPECT_FLOAT_EQ(phi2.f32()[1], 2.0f);
}

TEST(ResidualMemory, PerTensorIsolation) {
  ResidualMemory mem(1.0f, 1.0f);
  Tensor g = Tensor::from(std::vector<float>{1});
  mem.update("a", mem.compensate(g, "a"), Tensor::from(std::vector<float>{0}));
  EXPECT_NE(mem.residual("a"), nullptr);
  EXPECT_EQ(mem.residual("b"), nullptr);
  Tensor phi_b = mem.compensate(g, "b");
  EXPECT_FLOAT_EQ(phi_b.f32()[0], 1.0f);  // no residual mixed in
}

TEST(ResidualMemory, LosslessCompressionKeepsResidualZero) {
  ResidualMemory mem(1.0f, 1.0f);
  Tensor g = Tensor::from(std::vector<float>{3, -5});
  for (int k = 0; k < 3; ++k) {
    Tensor phi = mem.compensate(g, "t");
    mem.update("t", phi, phi);  // perfect reconstruction
    for (float v : mem.residual("t")->f32()) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

}  // namespace
}  // namespace grace::core
