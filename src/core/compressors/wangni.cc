// Variance-controlled adaptive sparsification (Wangni et al., NeurIPS'18;
// Table I's "Adaptive sparsification"). Each coordinate survives with
// probability p_i = min(1, s |g_i| / ||g||_1) for sparsity budget s
// (expected number of kept coordinates), and the kept value is rescaled to
// g_i / p_i, making the operator unbiased with provably minimal variance
// among unbiased sparsifiers of the same budget.
//
// Extension beyond the paper's 16 implemented methods.
#include <algorithm>
#include <cmath>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

class Wangni final : public Compressor {
 public:
  explicit Wangni(double ratio) : ratio_(ratio) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng& rng) override {
    auto x = grad.f32();
    const auto d = static_cast<int64_t>(x.size());
    const double budget = std::max(1.0, ratio_ * static_cast<double>(d));
    const float l1 = ops::l1_norm(x);
    std::vector<int32_t> indices;
    std::vector<float> values;
    for (int64_t i = 0; i < d; ++i) {
      const float mag = std::fabs(x[static_cast<size_t>(i)]);
      if (mag == 0.0f || l1 == 0.0f) continue;
      const double p = std::min(1.0, budget * mag / l1);
      if (rng.bernoulli(p)) {
        indices.push_back(static_cast<int32_t>(i));
        values.push_back(x[static_cast<size_t>(i)] / static_cast<float>(p));
      }
    }
    return sparse_payload(Tensor::from(values), indices, grad.shape());
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    return desparsify(ct.parts.at(0), ct.parts.at(1), ct.ctx.shape);
  }

  CompressorInfo info() const override {
    return {"wangni", CompressorClass::Sparsification, QNature::Random, false,
            "adaptive"};
  }

 private:
  double ratio_;
};

}  // namespace

std::unique_ptr<Compressor> make_wangni(double ratio) {
  return std::make_unique<Wangni>(ratio);
}

}  // namespace grace::core::compressors
