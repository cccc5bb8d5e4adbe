// Autograd engine: finite-difference gradient checks for every op, plus
// tape mechanics (topological order, accumulation, reuse, the root checks)
// and NoGrad guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "nn/conv_ops.h"
#include "nn/gradcheck.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "runtime/thread_pool.h"

namespace grace::nn {
namespace {

constexpr double kTol = 4e-2;  // float32 central differences

Tensor randn(Rng& rng, Shape shape, float stddev = 1.0f) {
  Tensor t(DType::F32, std::move(shape));
  rng.fill_normal(t.f32(), 0.0f, stddev);
  return t;
}

TEST(Autograd, BackwardOfSum) {
  auto x = make_value(Tensor::from(std::vector<float>{1, 2, 3}));
  backward(sum_all(x));
  for (float g : x->grad.f32()) EXPECT_FLOAT_EQ(g, 1.0f);
}

TEST(Autograd, GradientsAccumulateAcrossBackwardCalls) {
  auto x = make_value(Tensor::from(std::vector<float>{1, 2}));
  backward(sum_all(x));
  backward(sum_all(x));
  for (float g : x->grad.f32()) EXPECT_FLOAT_EQ(g, 2.0f);
}

TEST(Autograd, DiamondGraphAccumulates) {
  // y = sum(x + x): dy/dx = 2.
  auto x = make_value(Tensor::from(std::vector<float>{1, 2}));
  backward(sum_all(add(x, x)));
  for (float g : x->grad.f32()) EXPECT_FLOAT_EQ(g, 2.0f);
}

TEST(Autograd, TopoOrderRootFirst) {
  auto x = make_value(Tensor::from(std::vector<float>{1}));
  auto y = scale(x, 2.0f);
  auto z = sum_all(y);
  auto order = topo_order(z);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), z.get());
  EXPECT_EQ(order.back(), x.get());
}

// --- Per-op gradient checks -------------------------------------------

class OpGradCheck : public ::testing::Test {
 protected:
  Rng rng_{12345};

  void check(Module& m, const std::function<Value()>& loss) {
    auto result = gradcheck(m, loss, rng_);
    EXPECT_GT(result.checked, 0);
    EXPECT_LT(result.max_rel_error, kTol);
  }
};

TEST_F(OpGradCheck, AddSubScale) {
  Module m;
  auto& a = m.register_parameter("a", randn(rng_, Shape{{3, 4}}));
  auto& b = m.register_parameter("b", randn(rng_, Shape{{3, 4}}));
  // d/da = 2.5, d/db = -1 (avoid exact cancellation, which makes the
  // numeric quotient pure rounding noise).
  check(m, [&] {
    return sum_all(add(scale(a.value, 1.5f), sub(a.value, b.value)));
  });
}

TEST_F(OpGradCheck, Hadamard) {
  Module m;
  auto& a = m.register_parameter("a", randn(rng_, Shape{{2, 5}}));
  auto& b = m.register_parameter("b", randn(rng_, Shape{{2, 5}}));
  check(m, [&] { return sum_all(hadamard(a.value, b.value)); });
}

TEST_F(OpGradCheck, MatmulAndBias) {
  Module m;
  auto& a = m.register_parameter("a", randn(rng_, Shape{{4, 3}}));
  auto& b = m.register_parameter("b", randn(rng_, Shape{{3, 2}}));
  auto& bias = m.register_parameter("bias", randn(rng_, Shape{{2}}));
  check(m, [&] { return mean_all(add_bias(matmul(a.value, b.value), bias.value)); });
}

TEST_F(OpGradCheck, Activations) {
  Module m;
  auto& a = m.register_parameter("a", randn(rng_, Shape{{3, 3}}));
  check(m, [&] { return sum_all(relu(a.value)); });
  check(m, [&] { return sum_all(sigmoid(a.value)); });
  check(m, [&] { return sum_all(tanh_op(a.value)); });
}

TEST_F(OpGradCheck, ReshapeSliceConcat) {
  Module m;
  auto& a = m.register_parameter("a", randn(rng_, Shape{{2, 6}}));
  auto& b = m.register_parameter("b", randn(rng_, Shape{{2, 3}}));
  check(m, [&] {
    auto r = reshape(a.value, Shape{{3, 4}});
    return sum_all(hadamard(r, r));
  });
  check(m, [&] { return sum_all(slice_cols(a.value, 1, 3)); });
  check(m, [&] {
    auto c = concat_cols(slice_cols(a.value, 0, 3), b.value);
    return sum_all(hadamard(c, c));
  });
}

TEST_F(OpGradCheck, Embedding) {
  Module m;
  auto& table = m.register_parameter("t", randn(rng_, Shape{{7, 4}}));
  check(m, [&] {
    auto e = embedding(table.value, {0, 3, 3, 6});
    return sum_all(hadamard(e, e));
  });
}

TEST_F(OpGradCheck, SoftmaxCrossEntropy) {
  Module m;
  auto& logits = m.register_parameter("z", randn(rng_, Shape{{5, 4}}));
  check(m, [&] { return softmax_cross_entropy(logits.value, {0, 1, 2, 3, 1}); });
}

TEST_F(OpGradCheck, BceWithLogits) {
  Module m;
  auto& logits = m.register_parameter("z", randn(rng_, Shape{{4, 2}}));
  Tensor targets = Tensor::from(std::vector<float>{0, 1, 1, 0, 0.5f, 1}, Shape{{3, 2}});
  auto& z2 = m.register_parameter("z2", randn(rng_, Shape{{3, 2}}));
  check(m, [&] { return bce_with_logits(z2.value, targets); });
  (void)logits;
}

TEST_F(OpGradCheck, MseLoss) {
  Module m;
  auto& pred = m.register_parameter("p", randn(rng_, Shape{{3, 3}}));
  Tensor target = randn(rng_, Shape{{3, 3}});
  check(m, [&] { return mse_loss(pred.value, target); });
}

TEST_F(OpGradCheck, Conv2d) {
  Module m;
  auto& x = m.register_parameter("x", randn(rng_, Shape{{2, 2, 5, 5}}));
  auto& w = m.register_parameter("w", randn(rng_, Shape{{3, 2, 3, 3}}, 0.5f));
  auto& b = m.register_parameter("b", randn(rng_, Shape{{3}}));
  check(m, [&] {
    auto y = conv2d(x.value, w.value, b.value, 1, 1);
    return mean_all(hadamard(y, y));
  });
}

TEST_F(OpGradCheck, Conv2dStride2NoPad) {
  Module m;
  auto& x = m.register_parameter("x", randn(rng_, Shape{{1, 1, 6, 6}}));
  auto& w = m.register_parameter("w", randn(rng_, Shape{{2, 1, 2, 2}}));
  auto& b = m.register_parameter("b", randn(rng_, Shape{{2}}));
  check(m, [&] { return mean_all(conv2d(x.value, w.value, b.value, 2, 0)); });
}

TEST_F(OpGradCheck, MaxPoolAndUpsample) {
  Module m;
  auto& x = m.register_parameter("x", randn(rng_, Shape{{2, 2, 4, 4}}));
  check(m, [&] {
    auto y = maxpool2x2(x.value);
    return mean_all(hadamard(y, y));
  });
  check(m, [&] {
    auto y = upsample2x(x.value);
    return mean_all(hadamard(y, y));
  });
}

TEST_F(OpGradCheck, ConcatChannels) {
  Module m;
  auto& a = m.register_parameter("a", randn(rng_, Shape{{2, 2, 3, 3}}));
  auto& b = m.register_parameter("b", randn(rng_, Shape{{2, 1, 3, 3}}));
  check(m, [&] {
    auto c = concat_channels(a.value, b.value);
    return mean_all(hadamard(c, c));
  });
}

TEST_F(OpGradCheck, LstmCellThroughTime) {
  Module m;
  nn::LstmCell cell(m, "lstm", 3, 4, rng_);
  auto& x0 = m.register_parameter("x0", randn(rng_, Shape{{2, 3}}));
  auto& x1 = m.register_parameter("x1", randn(rng_, Shape{{2, 3}}));
  check(m, [&] {
    auto h = make_value(Tensor::zeros(Shape{{2, 4}}), false);
    auto c = make_value(Tensor::zeros(Shape{{2, 4}}), false);
    auto [h1, c1] = cell.forward(x0.value, h, c);
    auto [h2, c2] = cell.forward(x1.value, h1, c1);
    return sum_all(hadamard(h2, h2));
  });
}

// --- requires_grad == false: backward may leave that gradient unwritten ----

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return std::ranges::equal(a.bytes(), b.bytes());
}

bool all_zero(const Tensor& t) {
  return std::ranges::all_of(t.f32(), [](float v) { return v == 0.0f; });
}

struct OpGrads {
  Tensor x, w, b;
};

// Runs loss(op(x, w, b)) backward with x flagged as needing a gradient or
// not; w and b always need one.
OpGrads run_backward(const Tensor& x, const Tensor& w, const Tensor& b,
                     bool x_requires_grad,
                     Value (*op)(const Value&, const Value&, const Value&)) {
  auto xv = make_value(x, x_requires_grad);
  auto wv = make_value(w);
  auto bv = make_value(b);
  auto y = op(xv, wv, bv);
  backward(mean_all(hadamard(y, y)));
  return {xv->grad, wv->grad, bv->grad};
}

TEST(RequiresGrad, Conv2dSkipsTheInputGradientOnly) {
  Rng rng(31);
  const Tensor x = randn(rng, Shape{{3, 2, 6, 5}});
  const Tensor w = randn(rng, Shape{{4, 2, 3, 3}}, 0.5f);
  const Tensor b = randn(rng, Shape{{4}});
  const auto op = [](const Value& xv, const Value& wv, const Value& bv) {
    return conv2d(xv, wv, bv, /*stride=*/1, /*pad=*/1);
  };
  const OpGrads with = run_backward(x, w, b, true, op);
  const OpGrads without = run_backward(x, w, b, false, op);
  EXPECT_TRUE(bitwise_equal(with.w, without.w));
  EXPECT_TRUE(bitwise_equal(with.b, without.b));
  EXPECT_FALSE(all_zero(with.x));
  EXPECT_TRUE(all_zero(without.x));
}

TEST(RequiresGrad, MatmulSkipsTheLeftOperandGradientOnly) {
  Rng rng(32);
  const Tensor x = randn(rng, Shape{{5, 7}});
  const Tensor w = randn(rng, Shape{{7, 3}});
  const Tensor b = randn(rng, Shape{{3}});
  const auto op = [](const Value& xv, const Value& wv, const Value& bv) {
    return add_bias(matmul(xv, wv), bv);
  };
  const OpGrads with = run_backward(x, w, b, true, op);
  const OpGrads without = run_backward(x, w, b, false, op);
  EXPECT_TRUE(bitwise_equal(with.w, without.w));
  EXPECT_TRUE(bitwise_equal(with.b, without.b));
  EXPECT_FALSE(all_zero(with.x));
  EXPECT_TRUE(all_zero(without.x));
}

// --- maxpool2x2 against a per-window loop ----------------------------------

// Each 2x2 window scanned (0,0), (0,1), (1,0), (1,1) with a strict > from
// -inf: the forward values, and the backward scatter of g onto the winners'
// plane offsets (offset 0 for a window with nothing above -inf).
struct PoolReference {
  std::vector<float> out, grad;
};

PoolReference maxpool_reference(const Tensor& x, std::span<const float> g) {
  const int64_t planes = x.shape()[0] * x.shape()[1];
  const int64_t h = x.shape()[2], w = x.shape()[3], oh = h / 2, ow = w / 2;
  const auto xv = x.f32();
  PoolReference ref{std::vector<float>(static_cast<size_t>(planes * oh * ow)),
                    std::vector<float>(xv.size(), 0.0f)};
  for (int64_t p = 0; p < planes; ++p) {
    for (int64_t i = 0; i < oh; ++i) {
      for (int64_t j = 0; j < ow; ++j) {
        float best = -std::numeric_limits<float>::infinity();
        int64_t at = 0;
        for (int64_t di = 0; di < 2; ++di) {
          for (int64_t dj = 0; dj < 2; ++dj) {
            const int64_t off = (2 * i + di) * w + 2 * j + dj;
            const float v = xv[static_cast<size_t>(p * h * w + off)];
            if (v > best) {
              best = v;
              at = off;
            }
          }
        }
        const auto o = static_cast<size_t>((p * oh + i) * ow + j);
        ref.out[o] = best;
        ref.grad[static_cast<size_t>(p * h * w + at)] += g[o];
      }
    }
  }
  return ref;
}

void check_maxpool_matches_reference() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(33);
  Tensor x = randn(rng, Shape{{2, 3, 6, 8}});
  // Windows of plane 0 in scan order (0,0), (0,1), (1,0), (1,1): ties, all
  // -inf, a leading NaN, all NaN, -inf and NaN, a tie above the first,
  // and -0 against +0.
  const std::array<std::array<float, 4>, 7> windows{{
      {0.5f, 0.5f, 0.5f, 0.5f}, {-inf, -inf, -inf, -inf}, {nan, 1.0f, 3.0f, 2.0f},
      {nan, nan, nan, nan}, {-inf, nan, -inf, nan}, {1.0f, 2.0f, 2.0f, 2.0f},
      {-0.0f, 0.0f, 0.0f, -0.0f}}};
  const int64_t w = 8;
  auto xv = x.f32();
  for (size_t k = 0; k < windows.size(); ++k) {
    const int64_t wi = static_cast<int64_t>(k) / 4, wj = static_cast<int64_t>(k) % 4;
    for (int64_t q = 0; q < 4; ++q) {
      xv[static_cast<size_t>((2 * wi + q / 2) * w + 2 * wj + q % 2)] =
          windows[k][static_cast<size_t>(q)];
    }
  }
  auto xn = make_value(x);
  auto y = maxpool2x2(xn);
  rng.fill_normal(y->grad.f32(), 0.0f, 1.0f);
  const PoolReference ref = maxpool_reference(x, y->grad.f32());
  y->backward_fn(*y);
  EXPECT_TRUE(std::ranges::equal(y->data.bytes(), std::as_bytes(std::span(ref.out))));
  EXPECT_TRUE(std::ranges::equal(xn->grad.bytes(), std::as_bytes(std::span(ref.grad))));
}

TEST(Relu, WritesTheClampOfEveryElement) {
  Rng rng(34);
  Tensor x = randn(rng, Shape{{3, 37}});
  auto xv = x.f32();
  xv[0] = -0.0f;
  xv[1] = std::numeric_limits<float>::quiet_NaN();
  xv[2] = std::numeric_limits<float>::infinity();
  std::vector<float> want(xv.size());
  for (size_t i = 0; i < want.size(); ++i) want[i] = xv[i] > 0.0f ? xv[i] : 0.0f;
  const auto y = relu(make_value(x));
  EXPECT_TRUE(std::ranges::equal(y->data.bytes(), std::as_bytes(std::span(want))));
}

TEST(GradCheck, ANanGradientSticksPastLaterFiniteSamples) {
  // gradcheck differentiates the first loss_fn graph, which scales a by
  // NaN; later calls scale it by 1. So a's one sample compares a NaN
  // analytic gradient with a numeric 1, and b's four finite samples
  // follow it.
  Rng rng(35);
  Module m;
  auto& a = m.register_parameter("a", randn(rng, Shape{{1}}));
  auto& b = m.register_parameter("b", randn(rng, Shape{{4}}));
  int calls = 0;
  const auto result = gradcheck(m, [&] {
    const float s = calls++ == 0 ? std::numeric_limits<float>::quiet_NaN() : 1.0f;
    return add(sum_all(scale(a.value, s)), sum_all(b.value));
  }, rng);
  EXPECT_EQ(result.checked, 5);
  EXPECT_TRUE(std::isnan(result.max_rel_error)) << result.max_rel_error;
}

TEST(MaxPool, MatchesAPerWindowLoopOnOneLane) {
  const runtime::LaneLimit one(1);
  check_maxpool_matches_reference();
}

TEST(MaxPool, MatchesAPerWindowLoopOnThePool) {
  check_maxpool_matches_reference();
}

// --- backward's root checks ------------------------------------------------

TEST(Autograd, BackwardRejectsANullOrNonScalarRoot) {
  EXPECT_THROW(backward(nullptr), std::invalid_argument);
  auto x = make_value(Tensor::from(std::vector<float>{1, 2}));
  auto y = scale(x, 2.0f);
  EXPECT_THROW(backward(y), std::invalid_argument);
  // Nothing was seeded or propagated.
  EXPECT_TRUE(all_zero(y->grad));
  EXPECT_TRUE(all_zero(x->grad));
}

TEST(Autograd, BackwardRejectsARootBuiltUnderNoGrad) {
  auto x = make_value(Tensor::from(std::vector<float>{1, 2}));
  Value root, mid;
  {
    const NoGrad guard;
    root = sum_all(x);
    mid = scale(x, 2.0f);
  }
  EXPECT_THROW(backward(root), std::logic_error);
  // A taped root over a node built under the guard: that node has no
  // gradient for sum_all's closure to accumulate into.
  EXPECT_THROW(backward(sum_all(mid)), std::logic_error);
  EXPECT_TRUE(all_zero(x->grad));
}

// --- NoGrad ----------------------------------------------------------------

// Every op of ops.h and conv_ops.h on fixed inputs.
std::vector<std::pair<const char*, std::function<Value()>>> every_op(Rng& rng) {
  const auto leaf = [&](Shape shape) { return make_value(randn(rng, std::move(shape))); };
  const Value a = leaf(Shape{{3, 4}}), b = leaf(Shape{{3, 4}});
  const Value bias = leaf(Shape{{4}}), k = leaf(Shape{{4, 5}});
  const Value table = leaf(Shape{{7, 4}});
  const Value img = leaf(Shape{{2, 2, 4, 4}}), img1 = leaf(Shape{{2, 1, 4, 4}});
  const Value w = leaf(Shape{{3, 2, 3, 3}}), cb = leaf(Shape{{3}});
  const Tensor targets = Tensor::from(
      std::vector<float>{0, 1, 1, 0, 0.5f, 1, 0, 0, 1, 0.25f, 0, 1}, Shape{{3, 4}});
  return {
      {"add", [=] { return add(a, b); }},
      {"sub", [=] { return sub(a, b); }},
      {"hadamard", [=] { return hadamard(a, b); }},
      {"scale", [=] { return scale(a, 1.5f); }},
      {"add_bias", [=] { return add_bias(a, bias); }},
      {"matmul", [=] { return matmul(a, k); }},
      {"relu", [=] { return relu(a); }},
      {"sigmoid", [=] { return sigmoid(a); }},
      {"tanh_op", [=] { return tanh_op(a); }},
      {"reshape", [=] { return reshape(a, Shape{{4, 3}}); }},
      {"slice_cols", [=] { return slice_cols(a, 1, 2); }},
      {"concat_cols", [=] { return concat_cols(a, b); }},
      {"sum_all", [=] { return sum_all(a); }},
      {"mean_all", [=] { return mean_all(a); }},
      {"embedding", [=] { return embedding(table, {0, 3, 3, 6}); }},
      {"softmax_cross_entropy", [=] { return softmax_cross_entropy(a, {0, 3, 1}); }},
      {"bce_with_logits", [=] { return bce_with_logits(a, targets); }},
      {"mse_loss", [=] { return mse_loss(a, targets); }},
      {"conv2d", [=] { return conv2d(img, w, cb, 1, 1); }},
      {"maxpool2x2", [=] { return maxpool2x2(img); }},
      {"upsample2x", [=] { return upsample2x(img); }},
      {"concat_channels", [=] { return concat_channels(img, img1); }},
  };
}

TEST(NoGrad, OpOutputsEqualTheTapedOnesAndHoldNoGraph) {
  Rng rng(36);
  for (const auto& [name, run] : every_op(rng)) {
    const Value taped = run();
    ASSERT_FALSE(taped->parents.empty()) << name;
    ASSERT_TRUE(taped->backward_fn) << name;
    ASSERT_EQ(taped->grad.size_bytes(), taped->data.size_bytes()) << name;
    const NoGrad guard;
    const Value bare = run();
    EXPECT_EQ(bare->data.shape(), taped->data.shape()) << name;
    EXPECT_TRUE(bitwise_equal(bare->data, taped->data)) << name;
    EXPECT_TRUE(bare->parents.empty()) << name;
    EXPECT_FALSE(bare->backward_fn) << name;
    EXPECT_TRUE(bare->grad.empty()) << name;
    EXPECT_FALSE(bare->requires_grad) << name;
  }
}

TEST(NoGrad, GuardsNestAndRestore) {
  const auto x = make_value(Tensor::from(std::vector<float>{1, -2}));
  const auto taped = [&] { return relu(x)->backward_fn != nullptr; };
  EXPECT_TRUE(taped());
  {
    const NoGrad outer;
    EXPECT_FALSE(taped());
    {
      const NoGrad inner;
      EXPECT_FALSE(taped());
    }
    EXPECT_FALSE(taped());  // the inner guard restored the outer's state
  }
  EXPECT_TRUE(taped());
}

TEST(NoGrad, AParameterRegisteredUnderAGuardGetsItsGradient) {
  Module m;
  Parameter* p = nullptr;
  {
    const NoGrad guard;
    p = &m.register_parameter("a", Tensor::from(std::vector<float>{1, 2, 3}));
    EXPECT_EQ(p->value->grad.shape(), p->value->data.shape());
    EXPECT_TRUE(all_zero(p->value->grad));
    EXPECT_TRUE(p->value->requires_grad);
    // A plain leaf made under the guard gets none.
    EXPECT_TRUE(make_value(Tensor::from(std::vector<float>{1}))->grad.empty());
  }
  backward(sum_all(scale(p->value, 2.0f)));
  for (float g : p->value->grad.f32()) EXPECT_EQ(g, 2.0f);
}

TEST(NoGrad, AGuardOnOneThreadLeavesAnotherThreadsTape) {
  // Rank 0 evaluates under a guard while the other ranks train: a thread
  // that computes gradients while another thread's guard is alive gets
  // the gradients of a one-thread run, bit for bit.
  Rng rng(37);
  Module m;
  Conv2dLayer conv(m, "conv", 2, 3, 3, 1, 1, rng);
  Linear fc(m, "fc", 3 * 3 * 3, 4, rng);
  const Tensor x = randn(rng, Shape{{2, 2, 6, 6}});
  const auto loss = [&] {
    auto h = maxpool2x2(relu(conv.forward(make_value(x, false))));
    return softmax_cross_entropy(fc.forward(reshape(h, Shape{{2, 27}})), {1, 3});
  };
  m.zero_grad();
  backward(loss());
  std::vector<Tensor> want;
  for (auto& p : m.parameters()) want.push_back(p.value->grad);

  std::atomic<int> stage{0};  // 1: the guard is open; 2: training is done
  std::atomic<bool> guarded_nodes_bare{true};
  std::thread evaluator([&] {
    const NoGrad guard;
    stage = 1;
    while (stage.load() != 2) {
      const Value y = loss();
      if (!y->grad.empty() || y->backward_fn) guarded_nodes_bare = false;
    }
  });
  while (stage.load() != 1) std::this_thread::yield();
  for (int rep = 0; rep < 20; ++rep) {
    m.zero_grad();
    // Caught, so that the evaluator is joined on this path too.
    EXPECT_NO_THROW(backward(loss())) << "rep " << rep;
    size_t i = 0;
    for (auto& p : m.parameters()) {
      EXPECT_TRUE(bitwise_equal(p.value->grad, want[i++])) << p.name << " rep " << rep;
    }
  }
  stage = 2;
  evaluator.join();
  EXPECT_TRUE(guarded_nodes_bare);
}

TEST(AutogradModule, ZeroGradClears) {
  Rng rng(5);
  Module m;
  auto& a = m.register_parameter("a", randn(rng, Shape{{4}}));
  backward(sum_all(a.value));
  m.zero_grad();
  for (float g : a.value->grad.f32()) EXPECT_EQ(g, 0.0f);
}

TEST(AutogradModule, NumParameters) {
  Rng rng(5);
  Module a;
  Linear la(a, "fc", 3, 2, rng);
  EXPECT_EQ(a.num_parameters(), 3 * 2 + 2);
}

}  // namespace
}  // namespace grace::nn
