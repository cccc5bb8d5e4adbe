// Stochastic optimizers. Algorithm 1's customizable components (Q, Q^-1,
// phi, psi) are optimizer independent; the trainer applies any of these to
// the aggregated decompressed gradient. State (momentum, moment estimates)
// is kept per parameter slot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace grace::optim {

enum class OptimizerType { Sgd, Momentum, Nesterov, Adam, RmsProp };

struct OptimizerConfig {
  OptimizerType type = OptimizerType::Sgd;
  double lr = 0.01;
  double momentum = 0.9;       // Momentum / Nesterov
  double beta1 = 0.9;          // Adam
  double beta2 = 0.999;        // Adam
  double rho = 0.9;            // RMSProp decay
  double eps = 1e-8;
  double weight_decay = 0.0;   // L2 added to the gradient
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
  // gradient. Slots must be used consistently across iterations.
  virtual void apply(size_t slot, std::span<float> param,
                     std::span<const float> grad) = 0;

  void set_lr(double lr) { cfg_.lr = lr; }
  double lr() const { return cfg_.lr; }
  const OptimizerConfig& config() const { return cfg_; }

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
  // Slot `slot` of state buffer `buffer`, created on first use with the
  // given size.
  std::span<float> state(size_t buffer, size_t slot, size_t n);
  // Counts one more step of `slot` and returns the count.
  int64_t step(size_t slot);

  OptimizerConfig cfg_;

 private:
  std::vector<std::vector<Tensor>> buffers_;  // [buffer][slot]
  bool counts_steps_;
  std::vector<int64_t> steps_;                // [slot], when counted
};

std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg);

// Parses names used by benchmark configs: "sgd", "momentum", "nesterov",
// "adam", "rmsprop". Throws std::invalid_argument on unknown names.
OptimizerType optimizer_type_from_name(const std::string& name);
std::string optimizer_name(OptimizerType t);

}  // namespace grace::optim
