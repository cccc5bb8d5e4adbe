// Natural compression (Horvath et al., '19): randomized rounding of each
// magnitude to one of the two nearest integer powers of two; unbiased by
// construction. A code word is a sign bit plus an 8-bit exponent
// (9 bits per element on the wire).
#include <algorithm>
#include <cmath>

#include "core/compressors/compressors.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

constexpr int kZeroCode = -128;       // exponent code reserved for 0
constexpr int kMinExp = -126, kMaxExp = 127;

class Natural final : public Compressor {
 public:
  CompressedTensor compress(const Tensor& grad, const std::string&, Rng& rng) override {
    auto x = grad.f32();
    Tensor exps(DType::I32, Shape{{grad.numel()}});
    Tensor signs(DType::U8, Shape{{(grad.numel() + 7) / 8}});
    auto e = exps.i32();
    auto sg = signs.u8();
    std::fill(sg.begin(), sg.end(), 0);
    for (size_t i = 0; i < x.size(); ++i) {
      const float mag = std::fabs(x[i]);
      if (mag == 0.0f || !std::isfinite(mag)) {
        e[i] = kZeroCode;
      } else {
        int exp = static_cast<int>(std::floor(std::log2(mag)));
        const float low = std::ldexp(1.0f, exp);  // 2^exp <= mag < 2^(exp+1)
        const float p = (mag - low) / low;        // round up with prob p
        if (rng.bernoulli(p)) ++exp;
        e[i] = std::clamp(exp, kMinExp, kMaxExp);
      }
      if (x[i] >= 0.0f) sg[i / 8] = static_cast<uint8_t>(sg[i / 8] | (1u << (i % 8)));
    }
    CompressedTensor ct;
    ct.parts = {std::move(exps), std::move(signs)};
    ct.ctx.shape = grad.shape();
    ct.ctx.wire_bits = static_cast<uint64_t>(grad.numel()) * 9;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    const int64_t n = out.numel();
    auto e = wire_part(ct, 0, DType::I32, n, "natural").i32();
    auto sg = wire_part(ct, 1, DType::U8, (n + 7) / 8, "natural").u8();
    for (size_t i = 0; i < o.size(); ++i) {
      if (e[i] == kZeroCode) {
        o[i] = 0.0f;
        continue;
      }
      const float mag = std::ldexp(1.0f, e[i]);
      const bool positive = (sg[i / 8] >> (i % 8)) & 1u;
      o[i] = positive ? mag : -mag;
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"natural", CompressorClass::Quantization, QNature::Random, true,
            "||g||_0"};
  }
};

}  // namespace

std::unique_ptr<Compressor> make_natural() {
  return std::make_unique<Natural>();
}

}  // namespace grace::core::compressors
