// Error-feedback memory (Eq. 4 of the paper):
//   phi(m, g) = beta * m + gamma * g          (memory_compensate)
//   psi(m, g, g~) = phi(m, g) - Q^-1(g~)      (memory_update)
// The no-memory case is phi = g, psi = 0: GraceWorker then holds no
// ResidualMemory at all and hands the gradient to Q as it is.
#pragma once

#include <string>
#include <unordered_map>

#include "tensor/tensor.h"

namespace grace::core {

class ResidualMemory {
 public:
  ResidualMemory(float beta, float gamma) : beta_(beta), gamma_(gamma) {}

  // phi: combine this tensor's residual with the fresh gradient.
  Tensor compensate(const Tensor& grad, const std::string& name) const;
  // psi: given phi(m,g) (as returned by compensate) and the locally
  // decompressed payload Q^-1(Q(phi)), store the new residual.
  void update(const std::string& name, const Tensor& compensated,
              const Tensor& decompressed);
  // psi(m, g, 0) for a round that transmitted nothing: phi(m, g) becomes
  // the residual. Bitwise what update with an all-zero decompression
  // stores, since x - (+0) is x for every x, -0 and NaN included.
  void absorb(const Tensor& grad, const std::string& name);

  // Residual for a tensor (null if never updated); exposed for tests and
  // the join-bootstrap path (core/membership.h), whose install overwrites
  // it with state shipped from a surviving rank.
  const Tensor* residual(const std::string& name) const;
  void install(const std::string& name, const Tensor& r) {
    residuals_[name] = r;
  }

 private:
  float beta_, gamma_;
  std::unordered_map<std::string, Tensor> residuals_;
};

}  // namespace grace::core
