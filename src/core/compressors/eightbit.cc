// 8-bit quantization (Dettmers, ICLR'16): each float32 maps to an 8-bit
// code word — 1 sign bit and 7 bits indexing a minifloat codebook
// (3 exponent + 4 mantissa bits) after dynamic normalization by the
// tensor's max magnitude.
#include <algorithm>
#include <array>
#include <cmath>

#include "core/compressors/compressors.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

// 127 strictly-positive code words + the zero code, ascending.
// Values (1 + m/16) * 2^(e-7), e in [0,7), m in [0,16): covers
// [2^-7, ~1.94] after normalization to [0, 1].
std::array<float, 128> build_codebook() {
  std::array<float, 128> codes{};
  codes[0] = 0.0f;
  size_t at = 1;
  for (int e = 0; e < 8 && at < codes.size(); ++e) {
    for (int m = 0; m < 16 && at < codes.size(); ++m) {
      codes[at++] = (1.0f + static_cast<float>(m) / 16.0f) *
                    std::pow(2.0f, static_cast<float>(e - 7));
    }
  }
  return codes;
}

const std::array<float, 128>& codebook() {
  static const std::array<float, 128> codes = build_codebook();
  return codes;
}

// Nearest code word index for v in [0, +inf) (the find_bins step the paper
// profiles in §V-D).
uint8_t find_bin(float v) {
  const auto& codes = codebook();
  auto it = std::lower_bound(codes.begin(), codes.end(), v);
  if (it == codes.begin()) return 0;
  if (it == codes.end()) return static_cast<uint8_t>(codes.size() - 1);
  const auto hi = static_cast<size_t>(it - codes.begin());
  return static_cast<uint8_t>(v - codes[hi - 1] <= codes[hi] - v ? hi - 1 : hi);
}

class EightBit final : public Compressor {
 public:
  CompressedTensor compress(const Tensor& grad, const std::string&, Rng&) override {
    auto x = grad.f32();
    const float scale = ops::linf_norm(x);
    Tensor codes(DType::U8, Shape{{grad.numel()}});
    auto c = codes.u8();
    for (size_t i = 0; i < x.size(); ++i) {
      const float normalized = scale > 0.0f ? std::fabs(x[i]) / scale : 0.0f;
      const uint8_t bin = find_bin(normalized);
      c[i] = static_cast<uint8_t>((x[i] < 0.0f ? 0x80 : 0) | bin);
    }
    CompressedTensor ct;
    ct.parts = {std::move(codes)};
    ct.ctx.shape = grad.shape();
    ct.ctx.scalars = {scale};
    ct.ctx.wire_bits = static_cast<uint64_t>(grad.numel()) * 8 + 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    auto c = wire_part(ct, 0, DType::U8, out.numel(), "eightbit").u8();
    const float scale = ct.ctx.scalars.at(0);
    for (size_t i = 0; i < o.size(); ++i) {
      const float mag = codebook()[c[i] & 0x7F] * scale;
      o[i] = (c[i] & 0x80) ? -mag : mag;
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"eightbit", CompressorClass::Quantization, QNature::Deterministic,
            true, "||g||_0"};
  }
};

}  // namespace

std::unique_ptr<Compressor> make_eightbit() {
  return std::make_unique<EightBit>();
}

}  // namespace grace::core::compressors
