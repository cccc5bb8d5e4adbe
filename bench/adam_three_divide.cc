// Adam's loop as optim/optimizer.cc ran it before it divided once per
// element, compiled with -fno-math-errno as that file is
// (bench/CMakeLists.txt), so GCC vectorizes it the same way: three vdivpd
// and one vsqrtpd per vector of elements. The baseline of bench_kernels'
// adam_one_divide row.
#include <cmath>
#include <cstdint>
#include <span>

#include "optim/optimizer.h"

namespace grace::bench {

void three_divide_adam(const optim::OptimizerConfig& cfg, int64_t step,
                       std::span<float> param, std::span<float> m,
                       std::span<float> v, std::span<const float> grad) {
  using optim::kBeta1, optim::kBeta2, optim::kEps;
  const auto t = static_cast<double>(step);
  const double bias1 = 1.0 - std::pow(kBeta1, t);
  const double bias2 = 1.0 - std::pow(kBeta2, t);
  const double lr = cfg.lr;
  for (size_t i = 0; i < param.size(); ++i) {
    const float g = grad[i];
    m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
    v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    param[i] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + kEps));
  }
}

}  // namespace grace::bench
