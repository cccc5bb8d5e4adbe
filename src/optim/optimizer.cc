#include "optim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/ops.h"

namespace grace::optim {

void Optimizer::size_mismatch(size_t param, size_t grad) {
  throw std::invalid_argument("Optimizer::apply: gradient holds " +
                              std::to_string(grad) + " elements, parameter " +
                              std::to_string(param));
}

std::span<float> Optimizer::state(size_t buffer, size_t slot, size_t n) {
  std::vector<Tensor>& store = buffers_[buffer];
  if (store.size() <= slot) store.resize(slot + 1);
  Tensor& t = store[slot];
  if (t.empty()) {
    t = Tensor::zeros(Shape{{static_cast<int64_t>(n)}});
  } else if (t.numel() != static_cast<int64_t>(n)) {
    throw std::invalid_argument(
        "Optimizer: slot " + std::to_string(slot) + " holds " +
        std::to_string(t.numel()) + " elements, stepped with " +
        std::to_string(n));
  }
  return t.f32();
}

int64_t Optimizer::step(size_t slot) {
  if (steps_.size() <= slot) steps_.resize(slot + 1, 0);
  return ++steps_[slot];
}

std::vector<Tensor> Optimizer::export_state(
    std::span<const int64_t> slot_numels) const {
  std::vector<Tensor> out;
  for (const std::vector<Tensor>& store : buffers_) {
    for (size_t slot = 0; slot < slot_numels.size(); ++slot) {
      out.push_back(slot < store.size() && !store[slot].empty()
                        ? store[slot]
                        : Tensor::zeros(Shape{{slot_numels[slot]}}));
    }
  }
  if (counts_steps_) {
    const auto slots = static_cast<int64_t>(slot_numels.size());
    Tensor steps(DType::I32, Shape{{slots}});  // zero-filled
    for (size_t slot = 0; slot < std::min(slot_numels.size(), steps_.size());
         ++slot) {
      if (steps_[slot] > std::numeric_limits<int32_t>::max()) {
        throw std::overflow_error("Optimizer::export_state: i32 step count");
      }
      steps.i32()[slot] = static_cast<int32_t>(steps_[slot]);
    }
    out.push_back(std::move(steps));
  }
  return out;
}

void Optimizer::install_state(std::span<const Tensor> state) {
  const size_t extra = counts_steps_ ? 1 : 0;
  const size_t k = buffers_.size();
  const size_t slots =
      k > 0 && state.size() >= extra ? (state.size() - extra) / k : 0;
  if (state.size() != k * slots + extra ||
      (counts_steps_ &&
       (state.back().dtype() != DType::I32 ||
        state.back().numel() != static_cast<int64_t>(slots)))) {
    throw std::runtime_error(
        "Optimizer::install_state: state does not fit the optimizer's buffers");
  }
  for (size_t b = 0; b < k; ++b) {
    const auto first = state.begin() + static_cast<std::ptrdiff_t>(b * slots);
    buffers_[b].assign(first, first + static_cast<std::ptrdiff_t>(slots));
  }
  if (counts_steps_) {
    const auto steps = state.back().i32();
    steps_.assign(steps.begin(), steps.end());
  }
}

namespace {

class Sgd final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  void update(size_t, std::span<float> param,
              std::span<const float> grad) override {
    const auto lr = static_cast<float>(cfg_.lr);
    for (size_t i = 0; i < param.size(); ++i) param[i] -= lr * grad[i];
  }
};

class Momentum final : public Optimizer {
 public:
  explicit Momentum(OptimizerConfig cfg) : Optimizer(cfg, /*n_buffers=*/1) {}
  void update(size_t slot, std::span<float> param,
              std::span<const float> grad) override {
    auto v = state(0, slot, param.size());
    const auto lr = static_cast<float>(cfg_.lr);
    const auto mu = static_cast<float>(kMomentum);
    for (size_t i = 0; i < param.size(); ++i) {
      v[i] = mu * v[i] + grad[i];
      param[i] -= lr * v[i];
    }
  }
};

// Adam's step for one element whose moments m and v are already updated:
// three divides, each correctly rounded in scalar and vector form.
float adam_delta(double lr, double bias1, double bias2, float m, float v) {
  return static_cast<float>(lr * (m / bias1) / (std::sqrt(v / bias2) + kEps));
}

// The one-divide loop's block: the elements whose rounding test runs
// together, and which all recompute with adam_delta when one fails it.
constexpr size_t kAdamBlock = 512;

class Adam final : public Optimizer {
 public:
  explicit Adam(OptimizerConfig cfg)
      : Optimizer(cfg, /*n_buffers=*/2, /*counts_steps=*/true) {}
  void update(size_t slot, std::span<float> param,
              std::span<const float> grad) override {
    auto m = state(0, slot, param.size());
    auto v = state(1, slot, param.size());
    const auto t = static_cast<double>(step(slot));
    const double bias1 = 1.0 - std::pow(kBeta1, t);
    const double bias2 = 1.0 - std::pow(kBeta2, t);
    const double lr = cfg_.lr;
    if constexpr (!kAdamDividesOnce) {
      for (size_t i = 0; i < param.size(); ++i) {
        const float g = grad[i];
        m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
        v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
        param[i] -= adam_delta(lr, bias1, bias2, m[i], v[i]);
      }
      return;
    }
    // adam_delta's quotient D = lr * (m / bias1) / (sqrt(v / bias2) + eps)
    // costs three divides (the square root takes the divider too), and the
    // divider's throughput sets the loop's speed. D' = lr * (m * r1) /
    // (sqrt(v * r2) + eps), with r1 and r2 divided once per call, is not
    // the same double: to first order D carries at most 5.5 roundings of
    // 2^-53 (relative to the exact quotient) and D' at most 7, so
    // |D - D'| <= 12.5 * 2^-53 * |D'|, far under 2^-45 * |D'|. Rounding to
    // float is monotone and D lies between D' * (1 - 2^-45) and
    // D' * (1 + 2^-45), so where both round to the same float, D rounds to
    // it as well. A NaN fails the test; zeros, subnormals and infinities
    // need no special case. The bound needs no product or quotient to
    // overflow or underflow in double: m and v are floats, bias1 >= 0.1 and
    // bias2 >= 0.001, so any learning rate in [1e-200, 1e200] keeps that.
    // A block with any element that fails the test recomputes every update
    // with adam_delta, so param, m and v keep the three-divide loop's bits.
    constexpr double kBelow = 1.0 - 0x1p-45;
    constexpr double kAbove = 1.0 + 0x1p-45;
    const double r1 = 1.0 / bias1;
    const double r2 = 1.0 / bias2;
    float delta[kAdamBlock];
    for (size_t at = 0; at < param.size(); at += kAdamBlock) {
      const size_t len = std::min(kAdamBlock, param.size() - at);
      float* const p = param.data() + at;
      float* const mb = m.data() + at;
      float* const vb = v.data() + at;
      const float* const gb = grad.data() + at;
      int differ = 0;  // a bool here keeps GCC from vectorizing the loop
      for (size_t i = 0; i < len; ++i) {
        const float g = gb[i];
        mb[i] = static_cast<float>(kBeta1 * mb[i] + (1.0 - kBeta1) * g);
        vb[i] = static_cast<float>(kBeta2 * vb[i] + (1.0 - kBeta2) * g * g);
        const double d = lr * (mb[i] * r1) / (std::sqrt(vb[i] * r2) + kEps);
        const auto lo = static_cast<float>(d * kBelow);
        differ |= lo != static_cast<float>(d * kAbove);
        delta[i] = lo;
      }
      if (differ == 0) {
        for (size_t i = 0; i < len; ++i) p[i] -= delta[i];
      } else {
        for (size_t i = 0; i < len; ++i) {
          p[i] -= adam_delta(lr, bias1, bias2, mb[i], vb[i]);
        }
      }
    }
  }
};

class RmsProp final : public Optimizer {
 public:
  explicit RmsProp(OptimizerConfig cfg) : Optimizer(cfg, /*n_buffers=*/1) {}
  void update(size_t slot, std::span<float> param,
              std::span<const float> grad) override {
    auto s = state(0, slot, param.size());
    const double lr = cfg_.lr;
    for (size_t i = 0; i < param.size(); ++i) {
      const float g = grad[i];
      s[i] = static_cast<float>(kRho * s[i] + (1.0 - kRho) * g * g);
      param[i] -= static_cast<float>(lr * g / (std::sqrt(static_cast<double>(s[i])) + kEps));
    }
  }
};

}  // namespace

std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg) {
  switch (cfg.type) {
    case OptimizerType::Sgd: return std::make_unique<Sgd>(cfg);
    case OptimizerType::Momentum: return std::make_unique<Momentum>(cfg);
    case OptimizerType::Adam: return std::make_unique<Adam>(cfg);
    case OptimizerType::RmsProp: return std::make_unique<RmsProp>(cfg);
  }
  throw std::invalid_argument("unknown optimizer type");
}

}  // namespace grace::optim
