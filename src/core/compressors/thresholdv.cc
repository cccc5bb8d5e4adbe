// Threshold-v (Dutta et al., AAAI'20 / Strom-style hard threshold): select
// every element whose magnitude exceeds a fixed threshold v. The
// compressed size is adaptive — it depends on the gradient distribution —
// which is why an appropriate v is model specific (§III-B).
#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

class ThresholdV final : public Compressor {
 public:
  explicit ThresholdV(double v) : v_(static_cast<float>(v)) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng&) override {
    auto x = grad.f32();
    auto indices = ops::threshold_indices(x, v_);
    return sparse_payload(sparsify(x, indices), indices, grad.shape());
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    return desparsify(ct.parts.at(0), ct.parts.at(1), ct.ctx.shape);
  }

  CompressorInfo info() const override {
    return {"thresholdv", CompressorClass::Sparsification,
            QNature::Deterministic, true, "adaptive"};
  }

 private:
  float v_;
};

}  // namespace

std::unique_ptr<Compressor> make_thresholdv(double v) {
  return std::make_unique<ThresholdV>(v);
}

}  // namespace grace::core::compressors
