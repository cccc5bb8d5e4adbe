// Random-k (Stich et al., NeurIPS'18): transmit k uniformly chosen elements
// (values + indices). Biased by design; the `unbiased` flag applies the d/k
// rescaling that restores E[Q(x)] = x. Usually run with error feedback.
#include <algorithm>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

class RandomK final : public Compressor {
 public:
  RandomK(double ratio, bool unbiased) : ratio_(ratio), unbiased_(unbiased) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng& rng) override {
    auto x = grad.f32();
    const int64_t d = grad.numel();
    const int64_t k = std::max<int64_t>(1, static_cast<int64_t>(ratio_ * static_cast<double>(d)));
    auto indices = rng.sample_indices(d, k);
    CompressedTensor ct =
        sparse_payload(sparsify(x, indices), indices, grad.shape());
    ct.ctx.ints = {unbiased_ ? 1 : 0};
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = desparsify(ct.parts.at(0), ct.parts.at(1), ct.ctx.shape);
    if (ct.ctx.ints.at(0)) {
      const auto d = static_cast<float>(ct.ctx.shape.numel());
      const auto k = static_cast<float>(ct.parts.at(1).numel());
      ops::scale(out.f32(), d / k);
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"randomk", CompressorClass::Sparsification, QNature::Random, true,
            "k"};
  }

 private:
  double ratio_;
  bool unbiased_;
};

}  // namespace

std::unique_ptr<Compressor> make_randomk(double ratio, bool unbiased) {
  return std::make_unique<RandomK>(ratio, unbiased);
}

}  // namespace grace::core::compressors
