// Variance-based sparsification (Tsuzuku et al., ICLR'18). Coordinates
// whose gradient mean is statistically significant against its variance
// are transmitted; insignificant (noise-dominated) coordinates are delayed
// and keep accumulating. We maintain per-coordinate EMA estimates of the
// first and second moments across iterations and ship coordinate i when
// |mean_i| > lambda * std_i, zeroing its accumulator (delayed update).
//
// Extension beyond the paper's 16 implemented methods (Table I row
// "Variance-based sparsification").
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

constexpr float kEmaDecay = 0.8f;

class VarianceBased final : public Compressor {
 public:
  explicit VarianceBased(double lambda) : lambda_(static_cast<float>(lambda)) {}

  CompressedTensor compress(const Tensor& grad, const std::string& name,
                            Rng&) override {
    auto& st = state_[name];
    if (st.acc.numel() != grad.numel()) {
      st.acc = Tensor::zeros_like(grad);
      st.mean = Tensor::zeros_like(grad);
      st.second = Tensor::zeros_like(grad);
    }
    auto x = grad.f32();
    auto acc = st.acc.f32();
    auto mean = st.mean.f32();
    auto second = st.second.f32();
    std::vector<int32_t> indices;
    for (size_t i = 0; i < x.size(); ++i) {
      acc[i] += x[i];
      mean[i] = kEmaDecay * mean[i] + (1.0f - kEmaDecay) * x[i];
      second[i] = kEmaDecay * second[i] + (1.0f - kEmaDecay) * x[i] * x[i];
      const float var = std::max(0.0f, second[i] - mean[i] * mean[i]);
      if (std::fabs(mean[i]) > lambda_ * std::sqrt(var)) {
        indices.push_back(static_cast<int32_t>(i));
      }
    }
    if (indices.empty()) {
      // Cold start / pure noise: ship the single largest accumulated value
      // so progress never stalls completely.
      indices = ops::topk_abs_indices(acc, 1);
    }
    Tensor values = sparsify(acc, indices);
    for (int32_t i : indices) acc[static_cast<size_t>(i)] = 0.0f;  // delayed update
    return sparse_payload(std::move(values), indices, grad.shape());
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    return desparsify(ct.parts.at(0), ct.parts.at(1), ct.ctx.shape);
  }

  CompressorInfo info() const override {
    // Accumulation is built in (like DGC), so framework EF stays off.
    return {"varbased", CompressorClass::Sparsification,
            QNature::Deterministic, false, "adaptive"};
  }

 private:
  struct State {
    Tensor acc, mean, second;
  };
  float lambda_;
  std::unordered_map<std::string, State> state_;
};

}  // namespace

std::unique_ptr<Compressor> make_varbased(double lambda) {
  return std::make_unique<VarianceBased>(lambda);
}

}  // namespace grace::core::compressors
