// Optimizer single-step math against hand-computed updates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "optim/optimizer.h"
#include "tensor/rng.h"

namespace grace::optim {
namespace {

std::vector<float> step_once(OptimizerConfig cfg, std::vector<float> param,
                             const std::vector<float>& grad, int times = 1) {
  auto opt = make_optimizer(cfg);
  for (int i = 0; i < times; ++i) opt->apply(0, param, grad);
  return param;
}

TEST(Optim, SgdStep) {
  auto p = step_once({.type = OptimizerType::Sgd, .lr = 0.1}, {1.0f, 2.0f},
                     {10.0f, -10.0f});
  EXPECT_FLOAT_EQ(p[0], 0.0f);
  EXPECT_FLOAT_EQ(p[1], 3.0f);
}

TEST(Optim, MomentumAccumulates) {
  // kMomentum = 0.9.
  OptimizerConfig cfg{.type = OptimizerType::Momentum, .lr = 0.1};
  auto opt = make_optimizer(cfg);
  std::vector<float> p{0.0f};
  const std::vector<float> g{1.0f};
  opt->apply(0, p, g);  // v=1,   p=-0.1
  EXPECT_FLOAT_EQ(p[0], -0.1f);
  opt->apply(0, p, g);  // v=1.9, p=-0.1-0.19
  EXPECT_FLOAT_EQ(p[0], -0.29f);
}

TEST(Optim, AdamFirstStepIsLrSizedSignStep) {
  // With bias correction, the first Adam step is ~ lr * sign(g).
  OptimizerConfig cfg{.type = OptimizerType::Adam, .lr = 0.01};
  auto p = step_once(cfg, {0.0f, 0.0f}, {5.0f, -0.001f});
  EXPECT_NEAR(p[0], -0.01f, 1e-4f);
  EXPECT_NEAR(p[1], 0.01f, 1e-3f);
}

TEST(Optim, AdamPerSlotStateIsIndependent) {
  OptimizerConfig cfg{.type = OptimizerType::Adam, .lr = 0.01};
  auto opt = make_optimizer(cfg);
  std::vector<float> p0{0.0f}, p1{0.0f};
  std::vector<float> g1{1.0f};
  for (int i = 0; i < 5; ++i) opt->apply(0, p0, g1);
  opt->apply(1, p1, g1);
  // Slot 1 is on its first (bias-corrected) step regardless of slot 0.
  EXPECT_NEAR(p1[0], -0.01f, 1e-4f);
}

TEST(Optim, RmsPropStep) {
  OptimizerConfig cfg{.type = OptimizerType::RmsProp, .lr = 0.01};
  auto p = step_once(cfg, {0.0f}, {2.0f});
  // kRho = 0.9: s = 0.1*4 = 0.4; p = -0.01 * 2/sqrt(0.4)
  EXPECT_NEAR(p[0], -0.01f * 2.0f / std::sqrt(0.4f), 1e-5f);
}

TEST(Optim, SetLr) {
  auto opt = make_optimizer({.type = OptimizerType::Sgd, .lr = 0.1});
  opt->set_lr(0.5);
  EXPECT_DOUBLE_EQ(opt->lr(), 0.5);
  std::vector<float> p{0.0f};
  std::vector<float> g1{1.0f};
  opt->apply(0, p, g1);
  EXPECT_FLOAT_EQ(p[0], -0.5f);
}

TEST(Optim, ExportedStateContinuesTheSameTrajectory) {
  // A fresh optimizer that installs another's exported state takes the
  // same next step, bit for bit (the join-bootstrap contract). Slot 1 is
  // never stepped before the export and travels as zeros.
  const std::vector<int64_t> slots = {3, 2};
  const std::vector<float> g0{0.5f, -1.0f, 2.0f}, g1{1.0f, -0.25f};
  for (auto t : {OptimizerType::Sgd, OptimizerType::Momentum,
                 OptimizerType::Adam, OptimizerType::RmsProp}) {
    SCOPED_TRACE(::testing::Message() << "optimizer " << static_cast<int>(t));
    const OptimizerConfig cfg{.type = t, .lr = 0.1};
    auto a = make_optimizer(cfg);
    std::vector<float> p0{1.0f, 2.0f, 3.0f}, p1{-1.0f, 1.0f};
    for (int i = 0; i < 3; ++i) a->apply(0, p0, g0);

    const std::vector<Tensor> state = a->export_state(slots);
    EXPECT_EQ(state.empty(), t == OptimizerType::Sgd);
    auto b = make_optimizer(cfg);
    b->install_state(state);
    std::vector<float> q0 = p0, q1 = p1;
    a->apply(0, p0, g0);
    a->apply(1, p1, g1);
    b->apply(0, q0, g0);
    b->apply(1, q1, g1);
    EXPECT_EQ(q0, p0);
    EXPECT_EQ(q1, p1);
  }
}

// --- The vectorized optimizer loops against scalar references ----------
//
// optimizer.cc alone is compiled with -fno-math-errno so GCC vectorizes its
// Adam and RMSProp loops. The references below are the seed loops,
// compiled here without the flag; square root is correctly rounded in
// scalar and vector form, so every bit must agree.

void ref_adam_step(const OptimizerConfig& cfg, int64_t step,
                   std::vector<float>& param, std::vector<float>& m,
                   std::vector<float>& v, const std::vector<float>& grad) {
  const auto t = static_cast<double>(step);
  const double bias1 = 1.0 - std::pow(kBeta1, t);
  const double bias2 = 1.0 - std::pow(kBeta2, t);
  for (size_t i = 0; i < param.size(); ++i) {
    const float g = grad[i];
    m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
    v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    param[i] -= static_cast<float>(cfg.lr * mhat / (std::sqrt(vhat) + kEps));
  }
}

void ref_rmsprop_step(const OptimizerConfig& cfg, std::vector<float>& param,
                      std::vector<float>& s, const std::vector<float>& grad) {
  for (size_t i = 0; i < param.size(); ++i) {
    const float g = grad[i];
    s[i] = static_cast<float>(kRho * s[i] + (1.0 - kRho) * g * g);
    param[i] -= static_cast<float>(
        cfg.lr * g / (std::sqrt(static_cast<double>(s[i])) + kEps));
  }
}

// Bit patterns, so NaNs compare too.
std::vector<uint32_t> bits_of(std::span<const float> x) {
  std::vector<uint32_t> out(x.size());
  if (!x.empty()) std::memcpy(out.data(), x.data(), x.size_bytes());
  return out;
}

// Normal gradients that change every step, with the same special value at
// each of the first eight positions on every step: +-0, +-subnormal,
// +-Inf, NaN and a huge finite value.
std::vector<float> gradient(size_t n, int step) {
  std::vector<float> g(n);
  Rng rng(static_cast<uint64_t>(97 + step));
  rng.fill_normal(g, 0.0f, 1.0f);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-40f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            3e38f};
  for (size_t i = 0; i < std::min(n, std::size(specials)); ++i) {
    g[i] = specials[i];
  }
  return g;
}

TEST(Optim, AdamAndRmsPropMatchScalarReferenceBitForBit) {
  for (auto type : {OptimizerType::Adam, OptimizerType::RmsProp}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{13}, size_t{1001}}) {
      SCOPED_TRACE(::testing::Message()
                   << (type == OptimizerType::Adam ? "adam" : "rmsprop")
                   << " n=" << n);
      const OptimizerConfig cfg{.type = type, .lr = 0.01};
      auto opt = make_optimizer(cfg);
      std::vector<float> param(n), want;
      Rng rng(5);
      rng.fill_normal(param, 0.0f, 1.0f);
      want = param;
      std::vector<float> m(n, 0.0f), v(n, 0.0f);
      for (int step = 1; step <= 3; ++step) {
        const std::vector<float> g = gradient(n, step);
        opt->apply(0, param, g);
        if (type == OptimizerType::Adam) {
          ref_adam_step(cfg, step, want, m, v, g);
        } else {
          ref_rmsprop_step(cfg, want, m, g);
        }
        ASSERT_EQ(bits_of(param), bits_of(want)) << "step " << step;
      }
      // The moment buffers too: [m, v, steps] for Adam, [s] for RMSProp.
      const std::vector<int64_t> slots = {static_cast<int64_t>(n)};
      const std::vector<Tensor> state = opt->export_state(slots);
      EXPECT_EQ(bits_of(state.at(0).f32()), bits_of(m));
      if (type == OptimizerType::Adam) {
        EXPECT_EQ(bits_of(state.at(1).f32()), bits_of(v));
      }
    }
  }
}

}  // namespace
}  // namespace grace::optim
