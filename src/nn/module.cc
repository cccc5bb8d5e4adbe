#include "nn/module.h"

#include <cmath>

#include "tensor/ops.h"

namespace grace::nn {

Parameter& Module::register_parameter(std::string name, Tensor init) {
  // Not make_value: a parameter gets its gradient under a NoGrad guard too.
  auto leaf = std::make_shared<Node>(std::move(init));
  leaf->grad = Tensor::zeros_like(leaf->data);
  params_.push_back(Parameter{std::move(name), std::move(leaf)});
  return params_.back();
}

void Module::zero_grad() {
  for (auto& p : params_) ops::fill(p.value->grad.f32(), 0.0f);
}

int64_t Module::num_parameters() const {
  int64_t n = 0;
  for (const auto& p : params_) n += p.value->data.numel();
  return n;
}

Tensor he_normal(Rng& rng, Shape shape, int64_t fan_in) {
  Tensor t(DType::F32, std::move(shape));
  rng.fill_normal(t.f32(), 0.0f,
                  std::sqrt(2.0f / static_cast<float>(fan_in)));
  return t;
}

Tensor xavier_uniform(Rng& rng, Shape shape, int64_t fan_in, int64_t fan_out) {
  Tensor t(DType::F32, std::move(shape));
  const float lim = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  rng.fill_uniform(t.f32(), -lim, lim);
  return t;
}

}  // namespace grace::nn
