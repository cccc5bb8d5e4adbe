#include "optim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/ops.h"

namespace grace::optim {

std::span<float> Optimizer::state(size_t buffer, size_t slot, size_t n) {
  std::vector<Tensor>& store = buffers_[buffer];
  if (store.size() <= slot) store.resize(slot + 1);
  if (store[slot].numel() != static_cast<int64_t>(n)) {
    store[slot] = Tensor::zeros(Shape{{static_cast<int64_t>(n)}});
  }
  return store[slot].f32();
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
  void apply(size_t, std::span<float> param,
             std::span<const float> grad) override {
    const auto lr = static_cast<float>(cfg_.lr);
    for (size_t i = 0; i < param.size(); ++i) param[i] -= lr * grad[i];
  }
};

class Momentum final : public Optimizer {
 public:
  explicit Momentum(OptimizerConfig cfg) : Optimizer(cfg, /*n_buffers=*/1) {}
  void apply(size_t slot, std::span<float> param,
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

class Adam final : public Optimizer {
 public:
  explicit Adam(OptimizerConfig cfg)
      : Optimizer(cfg, /*n_buffers=*/2, /*counts_steps=*/true) {}
  void apply(size_t slot, std::span<float> param,
             std::span<const float> grad) override {
    auto m = state(0, slot, param.size());
    auto v = state(1, slot, param.size());
    const auto t = static_cast<double>(step(slot));
    const double bias1 = 1.0 - std::pow(kBeta1, t);
    const double bias2 = 1.0 - std::pow(kBeta2, t);
    const double lr = cfg_.lr;
    for (size_t i = 0; i < param.size(); ++i) {
      const float g = grad[i];
      m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
      v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
      const double mhat = m[i] / bias1;
      const double vhat = v[i] / bias2;
      param[i] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + kEps));
    }
  }
};

class RmsProp final : public Optimizer {
 public:
  explicit RmsProp(OptimizerConfig cfg) : Optimizer(cfg, /*n_buffers=*/1) {}
  void apply(size_t slot, std::span<float> param,
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
