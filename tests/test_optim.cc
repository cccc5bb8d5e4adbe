// Optimizer single-step math against hand-computed updates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

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

// The one-divide quotient of optimizer.cc's Adam loop, without its
// rounding test: for the element whose moments are m and v after step
// `step`.
float one_divide_delta(double lr, int64_t step, float m, float v) {
  const auto t = static_cast<double>(step);
  const double r1 = 1.0 / (1.0 - std::pow(kBeta1, t));
  const double r2 = 1.0 / (1.0 - std::pow(kBeta2, t));
  return static_cast<float>(lr * (m * r1) / (std::sqrt(v * r2) + kEps));
}

// One element's Adam state before a step, recorded where the one-divide
// quotient after that step rounds to another float than the reference:
// a scan of 1e10 random states (steps up to 400, lr 1e-3, 0.01 and 0.1)
// found the last six. The first is the step-33 element whose reference
// lies 2 double ulps below a float midpoint and whose one-divide quotient
// lies on it.
struct RecordedStep {
  int32_t steps_before;
  double lr;
  float m, v, g;
};
constexpr RecordedStep kRoundsApart[] = {
    {32, 1e-3, 0x1.f30c7ep-13f, 0x1.7b04d8p-19f, 0x1.f30c7ep-13f},
    {75, 1e-2, -0x1.e9baap-27f, 0x1.ca98p-49f, -0x1.2148cp-25f},
    {178, 0.1, -0x1.096f2cp-6f, 0x1.0f34p-12f, -0x1.8c4d7cp-6f},
    {23, 1e-3, -0x1.2906f8p-19f, 0x1.33c4p-37f, 0x1.a08eecp-19f},
    {39, 1e-3, 0x1.455a4p-24f, 0x1.5962p-39f, 0x1.73c914p-20f},
    {105, 1e-2, 0x1.7db5dp-13f, 0x1.42p-28f, -0x1.89ef3cp-13f},
    {278, 0.1, 0x1.400bap-21f, 0x1.25dcp-39f, -0x1.316658p-21f},
};

TEST(Optim, AdamAndRmsPropMatchScalarReferenceBitForBit) {
  // Steps 1-400 cross step 356, from which Adam's bias1 rounds to exactly
  // 1.0; steps 37,401-37,424, from an installed state, cross step 37,412,
  // from which bias2 does. The sizes straddle the one-divide loop's
  // 512-element blocks.
  struct Run {
    int64_t first_step;
    int steps;
  };
  for (auto type : {OptimizerType::Adam, OptimizerType::RmsProp}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{511}, size_t{512},
                     size_t{513}, size_t{4099}}) {
      for (double lr : {1e-3, 1e-2, 0.1, 1.0}) {
        for (const Run run : {Run{1, 400}, Run{37'401, 24}}) {
          // RMSProp keeps no step count to install.
          if (type == OptimizerType::RmsProp && run.first_step > 1) continue;
          SCOPED_TRACE(::testing::Message()
                       << (type == OptimizerType::Adam ? "adam" : "rmsprop")
                       << " n=" << n << " lr=" << lr
                       << " from step " << run.first_step);
          const OptimizerConfig cfg{.type = type, .lr = lr};
          auto opt = make_optimizer(cfg);
          std::vector<float> param(n), want;
          Rng rng(5);
          rng.fill_normal(param, 0.0f, 1.0f);
          want = param;
          std::vector<float> m(n, 0.0f), v(n, 0.0f);
          if (run.first_step > 1) {
            // Moments from an earlier stretch of training.
            rng.fill_normal(m, 0.0f, 0.1f);
            rng.fill_normal(v, 0.0f, 0.1f);
            for (float& x : v) x *= x;
            const std::vector<int32_t> steps{
                static_cast<int32_t>(run.first_step - 1)};
            const std::vector<Tensor> state{Tensor::from(m), Tensor::from(v),
                                            Tensor::from_i32(steps)};
            opt->install_state(state);
          }
          for (int64_t step = run.first_step;
               step < run.first_step + run.steps; ++step) {
            const std::vector<float> g = gradient(n, static_cast<int>(step));
            opt->apply(0, param, g);
            if (type == OptimizerType::Adam) {
              ref_adam_step(cfg, step, want, m, v, g);
            } else {
              ref_rmsprop_step(cfg, want, m, g);
            }
            ASSERT_EQ(bits_of(param), bits_of(want)) << "step " << step;
          }
          // The moment buffers too: [m, v, steps] for Adam, [s] for
          // RMSProp.
          const std::vector<int64_t> slots = {static_cast<int64_t>(n)};
          const std::vector<Tensor> state = opt->export_state(slots);
          EXPECT_EQ(bits_of(state.at(0).f32()), bits_of(m));
          if (type == OptimizerType::Adam) {
            EXPECT_EQ(bits_of(state.at(1).f32()), bits_of(v));
          }
        }
      }
    }
  }
  // The elements where the one-divide quotient alone rounds apart from
  // the reference: Adam must still match it.
  for (const RecordedStep& r : kRoundsApart) {
    SCOPED_TRACE(::testing::Message() << "step " << r.steps_before + 1
                                      << " lr=" << r.lr);
    const OptimizerConfig cfg{.type = OptimizerType::Adam, .lr = r.lr};
    auto opt = make_optimizer(cfg);
    std::vector<float> m{r.m}, v{r.v};
    const std::vector<int32_t> steps{r.steps_before};
    const std::vector<Tensor> state{Tensor::from(m), Tensor::from(v),
                                    Tensor::from_i32(steps)};
    opt->install_state(state);
    std::vector<float> param{0.0f}, want{0.0f};
    const std::vector<float> g{r.g};
    opt->apply(0, param, g);
    ref_adam_step(cfg, r.steps_before + 1, want, m, v, g);
    EXPECT_NE(-one_divide_delta(r.lr, r.steps_before + 1, m[0], v[0]),
              want[0]);
    EXPECT_EQ(bits_of(param), bits_of(want));
  }
}

TEST(Optim, ApplyRejectsAGradientOfAnotherSize) {
  for (auto t : {OptimizerType::Sgd, OptimizerType::Momentum,
                 OptimizerType::Adam, OptimizerType::RmsProp}) {
    SCOPED_TRACE(::testing::Message() << "optimizer " << static_cast<int>(t));
    auto opt = make_optimizer({.type = t, .lr = 0.1});
    std::vector<float> p{1.0f, 2.0f, 3.0f};
    const std::vector<float> shorter{0.5f, 0.5f}, longer{1.0f, 1.0f, 1.0f, 1.0f};
    EXPECT_THROW(opt->apply(0, p, shorter), std::invalid_argument);
    EXPECT_THROW(opt->apply(0, p, longer), std::invalid_argument);
    EXPECT_EQ(p, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  }
}

TEST(Optim, SlotKeepsTheSizeItWasFirstSteppedWith) {
  // Sgd keeps no per-slot state, so only the others are held to a size.
  for (auto t : {OptimizerType::Momentum, OptimizerType::Adam,
                 OptimizerType::RmsProp}) {
    SCOPED_TRACE(::testing::Message() << "optimizer " << static_cast<int>(t));
    auto opt = make_optimizer({.type = t, .lr = 0.1});
    std::vector<float> p3{1.0f, 2.0f, 3.0f}, p2{1.0f, 2.0f};
    const std::vector<float> g3{0.5f, 0.5f, 0.5f}, g2{0.5f, 0.5f};
    opt->apply(0, p3, g3);
    EXPECT_THROW(opt->apply(0, p2, g2), std::invalid_argument);
    opt->apply(1, p2, g2);  // another slot may have another size
  }
}

}  // namespace
}  // namespace grace::optim
