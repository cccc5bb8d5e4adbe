// Top-k (Aji & Heafield, EMNLP'17): transmit the k largest-magnitude
// elements and their indices (Figure 4 of the paper). Deterministic and a
// delta-compressor with delta = k/d; usually run with error feedback.
#include <algorithm>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

class TopK final : public Compressor {
 public:
  explicit TopK(double ratio) : ratio_(ratio) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng&) override {
    auto x = grad.f32();
    const int64_t d = grad.numel();
    const int64_t k = std::max<int64_t>(1, static_cast<int64_t>(ratio_ * static_cast<double>(d)));
    auto indices = ops::topk_abs_indices(x, k);
    return sparse_payload(sparsify(x, indices), indices, grad.shape());
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    return desparsify(ct.parts.at(0), ct.parts.at(1), ct.ctx.shape);
  }

  CompressorInfo info() const override {
    return {"topk", CompressorClass::Sparsification, QNature::Deterministic,
            true, "k"};
  }

 private:
  double ratio_;
};

}  // namespace

std::unique_ptr<Compressor> make_topk(double ratio) {
  return std::make_unique<TopK>(ratio);
}

}  // namespace grace::core::compressors
