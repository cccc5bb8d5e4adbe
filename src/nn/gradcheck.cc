#include "nn/gradcheck.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace grace::nn {

GradCheckResult gradcheck(Module& m, const std::function<Value()>& loss_fn,
                          Rng& rng, double eps, int64_t samples_per_tensor) {
  // Analytic gradients.
  m.zero_grad();
  backward(loss_fn());

  GradCheckResult result;
  for (auto& p : m.parameters()) {
    auto values = p.value->data.f32();
    auto grads = p.value->grad.f32();
    const auto n = static_cast<int64_t>(values.size());
    const int64_t samples = std::min(samples_per_tensor, n);
    for (int64_t s = 0; s < samples; ++s) {
      const auto at = static_cast<size_t>(rng.uniform_int(n));
      const float orig = values[at];
      values[at] = orig + static_cast<float>(eps);
      const double up = loss_fn()->data.item();
      values[at] = orig - static_cast<float>(eps);
      const double down = loss_fn()->data.item();
      values[at] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = grads[at];
      const double denom = std::max({std::fabs(numeric), std::fabs(analytic), 1e-4});
      const double error = std::fabs(numeric - analytic) / denom;
      // A NaN error must stick: std::max would drop it, and so would a
      // later finite error, since nothing compares above NaN.
      if (std::isnan(error) || error > result.max_rel_error) {
        result.max_rel_error = error;
      }
      ++result.checked;
    }
  }
  return result;
}

}  // namespace grace::nn
