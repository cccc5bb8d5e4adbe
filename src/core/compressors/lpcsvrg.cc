// LPC-SVRG quantizer (Yu et al., AISTATS'19): gradient clipping combined
// with codebook quantization. For bit-width w and scaling factor delta,
// a component in [eps, eps + delta] rounds to eps with probability
// (eps + delta - g) / delta, else to eps + delta, where eps ranges over
// the signed grid {-2^{w-1} delta, ..., (2^{w-1}-1) delta}. Values outside
// the grid are clipped (the "LPC" part). Unbiased inside the grid.
//
// One of the Table I methods the paper surveys but does not implement;
// provided here as an extension beyond the paper's 16.
#include <algorithm>
#include <cmath>

#include "core/compressors/compressors.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

class LpcSvrg final : public Compressor {
 public:
  explicit LpcSvrg(int bits) : bits_(std::clamp(bits, 2, 8)) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng& rng) override {
    auto x = grad.f32();
    // Grid step chosen so the clip range covers the tensor: delta such that
    // (2^{w-1} - 1) * delta = max|g|.
    const int half_levels = 1 << (bits_ - 1);
    const float mx = ops::linf_norm(x);
    const float delta =
        mx > 0.0f ? mx / static_cast<float>(half_levels - 1) : 1.0f;
    Tensor codes(DType::U8, Shape{{grad.numel()}});
    auto c = codes.u8();
    for (size_t i = 0; i < x.size(); ++i) {
      // Clip to the representable range, then randomized-round to the grid.
      const float v = std::clamp(x[i], -static_cast<float>(half_levels) * delta,
                                 static_cast<float>(half_levels - 1) * delta);
      const float cell = std::floor(v / delta);
      const float p_up = v / delta - cell;
      const float snapped = (cell + (rng.bernoulli(p_up) ? 1.0f : 0.0f));
      c[i] = static_cast<uint8_t>(
          static_cast<int>(snapped) + half_levels);  // offset to unsigned
    }
    CompressedTensor ct;
    ct.parts = {std::move(codes)};
    ct.ctx.shape = grad.shape();
    ct.ctx.scalars = {delta};
    ct.ctx.wire_bits = static_cast<uint64_t>(grad.numel()) * static_cast<uint64_t>(bits_) + 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    auto c = wire_part(ct, 0, DType::U8, out.numel(), "lpcsvrg").u8();
    const float delta = ct.ctx.scalars.at(0);
    const int half_levels = 1 << (bits_ - 1);
    for (size_t i = 0; i < o.size(); ++i) {
      o[i] = (static_cast<float>(c[i]) - static_cast<float>(half_levels)) * delta;
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"lpcsvrg", CompressorClass::Quantization, QNature::Random, false,
            "||g||_0"};
  }

 private:
  int bits_;
};

}  // namespace

std::unique_ptr<Compressor> make_lpcsvrg(int bits) {
  return std::make_unique<LpcSvrg>(bits);
}

}  // namespace grace::core::compressors
