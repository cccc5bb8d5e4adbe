// Adaptive threshold SGD (Dryden et al., MLHPC'16): a hybrid method. The
// gradient splits into positive and negative parts; from each part the top
// alpha fraction (two dynamically determined thresholds tau+ and tau-) is
// selected, and the selected values quantize to a single value each — the
// mean of the selected positives / negatives. The wire carries only two
// means plus the two index lists.
#include <algorithm>
#include <cmath>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

class Adaptive final : public Compressor {
 public:
  explicit Adaptive(double ratio) : ratio_(ratio) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng&) override {
    auto x = grad.f32();
    std::vector<int32_t> pos, neg;
    for (size_t i = 0; i < x.size(); ++i) {
      (x[i] >= 0.0f ? pos : neg).push_back(static_cast<int32_t>(i));
    }
    auto keep_top = [&](std::vector<int32_t>& idx) {
      const auto k = std::max<int64_t>(
          1, static_cast<int64_t>(ratio_ * static_cast<double>(idx.size())));
      if (idx.empty()) return;
      std::nth_element(idx.begin(), idx.begin() + (std::min<int64_t>(k, static_cast<int64_t>(idx.size())) - 1), idx.end(),
                       [&](int32_t a, int32_t b) {
                         return std::fabs(x[static_cast<size_t>(a)]) > std::fabs(x[static_cast<size_t>(b)]);
                       });
      idx.resize(static_cast<size_t>(std::min<int64_t>(k, static_cast<int64_t>(idx.size()))));
      // No sort: decompress only needs membership (every kept index gets
      // the same mean), so the nth_element partition order is fine and the
      // selection stays O(n).
    };
    keep_top(pos);
    keep_top(neg);
    auto mean_at = [&](const std::vector<int32_t>& idx) {
      if (idx.empty()) return 0.0f;
      double acc = 0.0;
      for (int32_t i : idx) acc += x[static_cast<size_t>(i)];
      return static_cast<float>(acc / static_cast<double>(idx.size()));
    };
    CompressedTensor ct;
    ct.parts = {Tensor::from_i32(pos), Tensor::from_i32(neg)};
    ct.ctx.shape = grad.shape();
    ct.ctx.scalars = {mean_at(pos), mean_at(neg)};
    // 1 quantized bit + 31-bit index per element, packed into 32-bit words
    // (the Strom/Dryden wire format), plus the two means.
    ct.ctx.wire_bits = (static_cast<uint64_t>(pos.size()) + neg.size()) * 32 + 64;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    const float pos_mean = ct.ctx.scalars.at(0);
    const float neg_mean = ct.ctx.scalars.at(1);
    for (int32_t i : wire_indices(ct.parts.at(0), out.numel())) {
      o[static_cast<size_t>(i)] = pos_mean;
    }
    for (int32_t i : wire_indices(ct.parts.at(1), out.numel())) {
      o[static_cast<size_t>(i)] = neg_mean;
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"adaptive", CompressorClass::Hybrid, QNature::Deterministic, true,
            "adaptive"};
  }

 private:
  double ratio_;
};

}  // namespace

std::unique_ptr<Compressor> make_adaptive(double ratio) {
  return std::make_unique<Adaptive>(ratio);
}

}  // namespace grace::core::compressors
