// Stochastic optimizers. Algorithm 1's customizable components (Q, Q^-1,
// phi, psi) are optimizer independent; the trainer applies any of these to
// the aggregated decompressed gradient. State (momentum, moment estimates)
// is kept per parameter slot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace grace::optim {

enum class OptimizerType { Sgd, Momentum, Adam, RmsProp };

// The hyperparameters every task runs with; only the type and the
// learning rate vary.
inline constexpr double kMomentum = 0.9;  // Momentum
inline constexpr double kBeta1 = 0.9;     // Adam
inline constexpr double kBeta2 = 0.999;   // Adam
inline constexpr double kRho = 0.9;       // RMSProp decay
inline constexpr double kEps = 1e-8;      // Adam / RMSProp

// Whether Adam's loop divides once per element (optimizer.cc): on builds
// whose ISA has AVX2. Elsewhere the one-divide form runs slower than the
// three-divide loop it replaces, so that loop stays. Both give the same
// bits.
#if defined(__AVX2__)
inline constexpr bool kAdamDividesOnce = true;
#else
inline constexpr bool kAdamDividesOnce = false;
#endif

struct OptimizerConfig {
  OptimizerType type = OptimizerType::Sgd;
  double lr = 0.01;
};

class Optimizer {
 public:
  // `n_buffers` per-slot state buffers (Momentum's velocity, Adam's two
  // moments, ...) and, with `counts_steps`, per-slot step counts (Adam's
  // bias correction). Sgd keeps neither.
  explicit Optimizer(OptimizerConfig cfg, size_t n_buffers = 0,
                     bool counts_steps = false)
      : cfg_(cfg), buffers_(n_buffers), counts_steps_(counts_steps) {}
  virtual ~Optimizer() = default;

  // Applies one update to parameter tensor `slot` given its aggregated
  // gradient. Slots must be used consistently across iterations: a slot
  // keeps the size it was first stepped with (std::invalid_argument
  // otherwise), and `grad` must hold as many elements as `param`
  // (std::invalid_argument).
  void apply(size_t slot, std::span<float> param, std::span<const float> grad) {
    if (grad.size() != param.size()) size_mismatch(param.size(), grad.size());
    update(slot, param, grad);
  }

  void set_lr(double lr) { cfg_.lr = lr; }
  double lr() const { return cfg_.lr; }

  // Join-bootstrap support (core/membership.h): the per-slot state for
  // parameter slots of sizes `slot_numels`, in a fixed order — buffer by
  // buffer, one f32 tensor per slot (zeros for a slot never stepped, which
  // is how a fresh buffer starts), then the step counts as one i32 tensor
  // when the optimizer keeps them. Empty for Sgd.
  std::vector<Tensor> export_state(std::span<const int64_t> slot_numels) const;
  // The inverse, on a joiner. Throws std::runtime_error when `state` does
  // not fit this optimizer's buffers.
  void install_state(std::span<const Tensor> state);

 protected:
  // Slot `slot` of state buffer `buffer`, created zero-filled on first use
  // with `n` elements; std::invalid_argument when it holds another count.
  std::span<float> state(size_t buffer, size_t slot, size_t n);
  // Counts one more step of `slot` and returns the count.
  int64_t step(size_t slot);

  OptimizerConfig cfg_;

 private:
  // apply() after its size check: grad.size() == param.size().
  virtual void update(size_t slot, std::span<float> param,
                      std::span<const float> grad) = 0;
  // Throws std::invalid_argument naming both sizes.
  [[noreturn]] static void size_mismatch(size_t param, size_t grad);

  std::vector<std::vector<Tensor>> buffers_;  // [buffer][slot]
  bool counts_steps_;
  std::vector<int64_t> steps_;                // [slot], when counted
};

std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg);

}  // namespace grace::optim
