#include "core/memory.h"

#include "tensor/ops.h"

namespace grace::core {

Tensor ResidualMemory::compensate(const Tensor& grad,
                                  const std::string& name) const {
  auto it = residuals_.find(name);
  Tensor out = grad;
  if (gamma_ != 1.0f) ops::scale(out.f32(), gamma_);
  if (it != residuals_.end()) {
    ops::axpy(out.f32(), beta_, it->second.f32());
  }
  return out;
}

void ResidualMemory::update(const std::string& name, const Tensor& compensated,
                            const Tensor& decompressed) {
  Tensor residual = compensated;
  ops::sub(residual.f32(), decompressed.f32());
  residuals_[name] = std::move(residual);
}

void ResidualMemory::absorb(const Tensor& grad, const std::string& name) {
  Tensor phi = compensate(grad, name);
  residuals_[name] = std::move(phi);
}

const Tensor* ResidualMemory::residual(const std::string& name) const {
  auto it = residuals_.find(name);
  return it == residuals_.end() ? nullptr : &it->second;
}

}  // namespace grace::core
