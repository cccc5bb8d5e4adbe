// INCEPTIONN (Li et al., MICRO'18): per-element precision levels. Each
// element carries a 2-bit tag selecting 0 / 8 / 16 / 32-bit representation
// based on its magnitude relative to the tensor maximum. The original runs
// on FPGA NICs; we reproduce the algorithmic behaviour on the CPU.
#include <algorithm>
#include <cmath>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

// Magnitude thresholds (fractions of ||g||_inf) selecting the level.
constexpr float kDropBelow = 1e-3f;
constexpr float kEightBitBelow = 0.05f;
constexpr float kSixteenBitBelow = 0.5f;

class Inceptionn final : public Compressor {
 public:
  CompressedTensor compress(const Tensor& grad, const std::string&, Rng&) override {
    auto x = grad.f32();
    const float mx = ops::linf_norm(x);
    std::vector<uint8_t> tags(x.size(), 0);
    std::vector<uint8_t> codes8;
    std::vector<float> exact;  // 16- and 32-bit values (stored as f32)
    uint64_t bits = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const float mag = std::fabs(x[i]);
      bits += 2;  // tag
      if (mx == 0.0f || mag < kDropBelow * mx) {
        tags[i] = 0;
      } else if (mag < kEightBitBelow * mx) {
        tags[i] = 1;
        // 8-bit uniform code over the 8-bit band [0, kEightBitBelow*mx].
        const float band = kEightBitBelow * mx;
        auto c = static_cast<int>(std::lround(mag / band * 127.0f));
        codes8.push_back(static_cast<uint8_t>(
            (x[i] < 0.0f ? 0x80 : 0) | std::min(c, 127)));
        bits += 8;
      } else if (mag < kSixteenBitBelow * mx) {
        tags[i] = 2;  // 16-bit half-precision slot; reconstruction is exact
        exact.push_back(quantize_half(x[i]));
        bits += 16;
      } else {
        tags[i] = 3;  // full 32-bit
        exact.push_back(x[i]);
        bits += 32;
      }
    }
    CompressedTensor ct;
    ct.parts = {pack(tags, 2),
                Tensor(DType::U8, Shape{{static_cast<int64_t>(codes8.size())}}),
                Tensor::from(exact)};
    std::copy(codes8.begin(), codes8.end(), ct.parts[1].u8().begin());
    ct.ctx.shape = grad.shape();
    ct.ctx.scalars = {mx};
    ct.ctx.wire_bits = bits + 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    const float mx = ct.ctx.scalars.at(0);
    const auto tags = unpack(ct.parts.at(0), 2, ct.ctx.shape.numel());
    // Tag 1 takes the next 8-bit code, tags 2 and 3 the next exact value.
    const auto n8 = std::count(tags.begin(), tags.end(), uint8_t{1});
    const auto n_exact = std::count_if(tags.begin(), tags.end(),
                                       [](uint8_t t) { return t >= 2; });
    auto codes8 = wire_part(ct, 1, DType::U8, n8, "inceptionn").u8();
    auto exact = wire_part(ct, 2, DType::F32, n_exact, "inceptionn").f32();
    size_t at8 = 0, at_exact = 0;
    for (size_t i = 0; i < o.size(); ++i) {
      switch (tags[i]) {
        case 0:
          o[i] = 0.0f;
          break;
        case 1: {
          const uint8_t c = codes8[at8++];
          const float band = kEightBitBelow * mx;
          const float mag = static_cast<float>(c & 0x7F) / 127.0f * band;
          o[i] = (c & 0x80) ? -mag : mag;
          break;
        }
        default:
          o[i] = exact[at_exact++];
          break;
      }
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"inceptionn", CompressorClass::Quantization,
            QNature::Deterministic, false, "||g||_0"};
  }

 private:
  // Truncate the mantissa to 10 bits (the precision loss of fp16 storage).
  static float quantize_half(float v) {
    uint32_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    u &= 0xFFFFE000u;  // keep sign, exponent, top 10 mantissa bits
    std::memcpy(&v, &u, sizeof(v));
    return v;
  }
};

}  // namespace

std::unique_ptr<Compressor> make_inceptionn() {
  return std::make_unique<Inceptionn>();
}

}  // namespace grace::core::compressors
