// Optimizer single-step math against hand-computed updates.
#include <gtest/gtest.h>

#include <cmath>

#include "optim/optimizer.h"

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

TEST(Optim, SgdWeightDecay) {
  OptimizerConfig cfg{.type = OptimizerType::Sgd, .lr = 0.1, .weight_decay = 0.5};
  auto p = step_once(cfg, {2.0f}, {0.0f});
  // grad_eff = 0 + 0.5*2 = 1; p = 2 - 0.1*1
  EXPECT_FLOAT_EQ(p[0], 1.9f);
}

TEST(Optim, MomentumAccumulates) {
  OptimizerConfig cfg{.type = OptimizerType::Momentum, .lr = 0.1, .momentum = 0.9};
  auto opt = make_optimizer(cfg);
  std::vector<float> p{0.0f};
  const std::vector<float> g{1.0f};
  opt->apply(0, p, g);  // v=1,   p=-0.1
  EXPECT_FLOAT_EQ(p[0], -0.1f);
  opt->apply(0, p, g);  // v=1.9, p=-0.1-0.19
  EXPECT_FLOAT_EQ(p[0], -0.29f);
}

TEST(Optim, NesterovLookahead) {
  OptimizerConfig cfg{.type = OptimizerType::Nesterov, .lr = 0.1, .momentum = 0.9};
  auto opt = make_optimizer(cfg);
  std::vector<float> p{0.0f};
  std::vector<float> g1{1.0f};
  opt->apply(0, p, g1);  // v=1; update = g + mu*v = 1.9; p = -0.19
  EXPECT_FLOAT_EQ(p[0], -0.19f);
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
  OptimizerConfig cfg{.type = OptimizerType::RmsProp, .lr = 0.01, .rho = 0.9,
                      .eps = 1e-8};
  auto p = step_once(cfg, {0.0f}, {2.0f});
  // s = 0.1*4 = 0.4; p = -0.01 * 2/sqrt(0.4)
  EXPECT_NEAR(p[0], -0.01f * 2.0f / std::sqrt(0.4f), 1e-5f);
}

TEST(Optim, NameRoundTrip) {
  for (auto t : {OptimizerType::Sgd, OptimizerType::Momentum,
                 OptimizerType::Nesterov, OptimizerType::Adam,
                 OptimizerType::RmsProp}) {
    EXPECT_EQ(optimizer_type_from_name(optimizer_name(t)), t);
  }
  EXPECT_THROW(optimizer_type_from_name("bogus"), std::invalid_argument);
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
                 OptimizerType::Nesterov, OptimizerType::Adam,
                 OptimizerType::RmsProp}) {
    SCOPED_TRACE(optimizer_name(t));
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

}  // namespace
}  // namespace grace::optim
