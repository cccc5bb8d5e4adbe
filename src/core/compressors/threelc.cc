// 3LC (Lim, Andersen & Kaminsky, MLSys'19): 3-value quantization with a
// sparsity multiplier s in [1, 2), followed by aggressive lossless
// encoding. M = s * ||g||_inf scales the gradient; round((1/M) g) yields
// {-1, 0, 1}; five ternary digits pack losslessly into one byte
// (3^5 = 243 <= 256), and long zero runs compress further via the reserved
// byte values 243..255 (runs of all-zero groups). Error compensation is on,
// per the original design.
//
// Extension beyond the paper's 16 implemented methods.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/compressors/compressors.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

constexpr int kGroup = 5;          // ternary digits per byte
constexpr uint8_t kZeroGroup = 121;  // code of the all-zero group (0,0,0,0,0)
                                     // with digits offset by +1: sum 1*3^i = 121
constexpr uint8_t kRunBase = 243;  // 243..255 encode 2..14 zero groups

class ThreeLc final : public Compressor {
 public:
  explicit ThreeLc(double s) : s_(static_cast<float>(std::clamp(s, 1.0, 1.999))) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng&) override {
    auto x = grad.f32();
    const float m = s_ * ops::linf_norm(x);
    const auto d = static_cast<int64_t>(x.size());
    // Quantize to ternary digits 0/1/2 (offset by +1 from -1/0/+1).
    std::vector<uint8_t> digits(static_cast<size_t>(d));
    for (int64_t i = 0; i < d; ++i) {
      const float q = m > 0.0f ? std::round(x[static_cast<size_t>(i)] / m) : 0.0f;
      digits[static_cast<size_t>(i)] = static_cast<uint8_t>(std::clamp(q, -1.0f, 1.0f) + 1.0f);
    }
    // Base-3^5 packing with zero-run encoding.
    std::vector<uint8_t> bytes;
    bytes.reserve(static_cast<size_t>(d / kGroup + 1));
    int64_t i = 0;
    while (i < d) {
      uint8_t code = 0;
      int pow3 = 1;
      for (int j = 0; j < kGroup; ++j) {
        const uint8_t digit = i + j < d ? digits[static_cast<size_t>(i + j)] : 1;
        code = static_cast<uint8_t>(code + digit * pow3);
        pow3 *= 3;
      }
      i += kGroup;
      if (code == kZeroGroup && !bytes.empty() && can_extend_run(bytes.back())) {
        ++bytes.back();  // extend the current zero-run byte
      } else if (code == kZeroGroup && !bytes.empty() && bytes.back() == kZeroGroup) {
        bytes.back() = kRunBase;  // two zero groups -> start a run byte
      } else {
        bytes.push_back(code);
      }
    }
    CompressedTensor ct;
    Tensor packed(DType::U8, Shape{{static_cast<int64_t>(bytes.size())}});
    std::copy(bytes.begin(), bytes.end(), packed.u8().begin());
    ct.parts = {std::move(packed)};
    ct.ctx.shape = grad.shape();
    ct.ctx.scalars = {m};
    ct.ctx.wire_bits = static_cast<uint64_t>(bytes.size()) * 8 + 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    const float m = ct.ctx.scalars.at(0);
    const auto d = ct.ctx.shape.numel();
    const Tensor& packed = ct.parts.at(0);
    if (packed.dtype() != DType::U8) {
      throw std::runtime_error("threelc: packed part is not u8");
    }
    int64_t i = 0;
    for (uint8_t code : packed.u8()) {
      int64_t groups = 1;
      if (code >= kRunBase) {
        groups = 2 + (code - kRunBase);
        code = kZeroGroup;
      }
      for (int64_t g = 0; g < groups; ++g) {
        uint8_t rest = code;
        for (int j = 0; j < kGroup && i < d; ++j, ++i) {
          const int digit = rest % 3;
          rest = static_cast<uint8_t>(rest / 3);
          o[static_cast<size_t>(i)] = static_cast<float>(digit - 1) * m;
        }
      }
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"threelc", CompressorClass::Hybrid, QNature::Deterministic, true,
            "adaptive"};
  }

 private:
  static bool can_extend_run(uint8_t back) {
    return back >= kRunBase && back < 255;
  }

  float s_;
};

}  // namespace

std::unique_ptr<Compressor> make_threelc(double s) {
  return std::make_unique<ThreeLc>(s);
}

}  // namespace grace::core::compressors
