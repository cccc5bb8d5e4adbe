// Error-feedback memory (Eq. 4 of the paper):
//   phi(m, g) = beta * m + gamma * g          (memory_compensate)
//   psi(m, g, g~) = phi(m, g) - Q^-1(g~)      (memory_update)
// The no-memory case is phi = g, psi = 0.
#pragma once

#include <string>
#include <unordered_map>

#include "tensor/tensor.h"

namespace grace::core {

class Memory {
 public:
  virtual ~Memory() = default;
  // phi: combine this tensor's residual with the fresh gradient.
  virtual Tensor compensate(const Tensor& grad, const std::string& name) = 0;
  // psi: given phi(m,g) (as returned by compensate) and the locally
  // decompressed payload Q^-1(Q(phi)), store the new residual.
  virtual void update(const std::string& name, const Tensor& compensated,
                      const Tensor& decompressed) = 0;
  // Join-bootstrap support (core/membership.h): the residual held for
  // `name` (null when none / memory off), and the inverse — overwrite it
  // with state shipped from a surviving rank.
  virtual const Tensor* residual(const std::string& /*name*/) const {
    return nullptr;
  }
  virtual void install(const std::string& /*name*/, const Tensor& /*r*/) {}
  virtual bool enabled() const = 0;
};

class NoMemory final : public Memory {
 public:
  Tensor compensate(const Tensor& grad, const std::string&) override {
    return grad;
  }
  void update(const std::string&, const Tensor&, const Tensor&) override {}
  bool enabled() const override { return false; }
};

class ResidualMemory final : public Memory {
 public:
  ResidualMemory(float beta, float gamma) : beta_(beta), gamma_(gamma) {}

  Tensor compensate(const Tensor& grad, const std::string& name) override;
  void update(const std::string& name, const Tensor& compensated,
              const Tensor& decompressed) override;
  bool enabled() const override { return true; }

  // Residual for a tensor (zeros if never updated); exposed for tests and
  // the join-bootstrap path.
  const Tensor* residual(const std::string& name) const override;
  void install(const std::string& name, const Tensor& r) override {
    residuals_[name] = r;
  }

 private:
  float beta_, gamma_;
  std::unordered_map<std::string, Tensor> residuals_;
};

}  // namespace grace::core
