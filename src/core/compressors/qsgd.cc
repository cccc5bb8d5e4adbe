// QSGD (Alistarh et al., NeurIPS'17): codebook quantization with randomized
// rounding. Each |g[i]| / ||g||_2 lands in a level interval [l/s, (l+1)/s]
// and rounds up with probability s|g[i]|/||g||_2 - l, making the operator
// unbiased. Code words use ceil(log2(s+1)) bits plus a sign bit.
#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "core/compressors/compressors.h"
#include "tensor/ops.h"
#include "util/simd.h"

namespace grace::core::compressors {
namespace {

class Qsgd final : public Compressor {
 public:
  explicit Qsgd(int levels) : s_(levels) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng& rng) override {
    auto x = grad.f32();
    const float norm = ops::l2_norm(x);
    const auto n = static_cast<int64_t>(x.size());
    Tensor codes = Tensor::for_overwrite(DType::U8, Shape{{n}});
    Tensor signs = Tensor::for_overwrite(DType::U8, Shape{{(n + 7) / 8}});
    encode_levels(x.data(), codes.u8().data(), n, norm, rng);
    util::simd::pack_sign_bits(x.data(), signs.u8().data(), n);
    CompressedTensor ct;
    ct.parts = {std::move(codes), std::move(signs)};
    ct.ctx.shape = grad.shape();
    ct.ctx.scalars = {norm};
    const auto code_bits = static_cast<uint64_t>(
        std::ceil(std::log2(static_cast<double>(s_) + 1.0)));
    ct.ctx.wire_bits = static_cast<uint64_t>(grad.numel()) * (code_bits + 1) + 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    check_parts(ct);
    Tensor out = Tensor::for_overwrite(DType::F32, ct.ctx.shape);
    decode(ct, out.f32(), /*accumulate=*/false);
    return out;
  }

  void decompress_add(const CompressedTensor& ct,
                      std::span<float> acc) const override {
    check_fold_size(ct, acc);
    check_parts(ct);
    decode(ct, acc, /*accumulate=*/true);
  }

  CompressorInfo info() const override {
    return {"qsgd", CompressorClass::Quantization, QNature::Random, false,
            "||g||_0"};
  }

 private:
  // A peer's frame passes its CRC whatever part sizes it claims; the
  // decoder reads numel codes and (numel + 7) / 8 sign bytes, so check.
  static void check_parts(const CompressedTensor& ct) {
    const int64_t n = ct.ctx.shape.numel();
    wire_part(ct, 0, DType::U8, n, "qsgd");
    wire_part(ct, 1, DType::U8, (n + 7) / 8, "qsgd");
    if (ct.ctx.scalars.size() != 1) {
      throw std::runtime_error("qsgd: payload needs exactly one norm");
    }
  }

  // Levels from Rng::uniforms' pieces: one draw per element, in element
  // order, whatever the input. A zero, NaN or infinite norm puts every
  // level at 0 (an infinite element would make |x| / norm NaN). Otherwise
  // a branch-free pass the compiler vectorizes rounds up where
  // double(u) < double(p), with |x| / norm kept a division.
  void encode_levels(const float* x, uint8_t* c, int64_t n, float norm,
                     Rng& rng) const {
    const auto fs = static_cast<float>(s_);
    const bool zero = !(norm > 0.0f && std::isfinite(norm));
    rng.uniforms(n, [&](int64_t first, std::span<const double> u) {
      const auto m = static_cast<int64_t>(u.size());
      uint8_t* cb = c + first;
      if (zero) {
        std::fill_n(cb, m, uint8_t{0});
        return;
      }
      const float* xb = x + first;
      for (int64_t j = 0; j < m; ++j) {
        const float scaled = std::fabs(xb[j]) / norm * fs;
        const int level = static_cast<int>(scaled);
        const float p = scaled - static_cast<float>(level);
        const int up = u[j] < static_cast<double>(p);
        cb[j] = static_cast<uint8_t>(std::min(level + up, s_));
      }
    });
  }

  void decode(const CompressedTensor& ct, std::span<float> out,
              bool accumulate) const {
    util::simd::dequantize_signed(ct.parts[0].u8().data(),
                                  ct.parts[1].u8().data(), out.data(),
                                  static_cast<int64_t>(out.size()),
                                  ct.ctx.scalars[0], s_, accumulate);
  }

  int s_;
};

}  // namespace

std::unique_ptr<Compressor> make_qsgd(int levels) {
  // Level codes are stored one per u8 (values 0..levels), so levels outside
  // [1, 255] would silently wrap the stored code — e.g. levels=256 maps the
  // top level to 0 — corrupting both the decoded magnitudes and the
  // wire-bit accounting. Reject rather than clamp: a caller asking for
  // >8-bit quantization should hear about it, not get a different method.
  if (levels < 1 || levels > 255) {
    throw std::invalid_argument("qsgd: levels must be in [1, 255], got " +
                                std::to_string(levels));
  }
  return std::make_unique<Qsgd>(levels);
}

}  // namespace grace::core::compressors
