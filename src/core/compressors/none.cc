// Baseline: identity "compression". Payload is the raw float32 gradient and
// rides Allreduce (summing commutes with the identity).
#include <utility>

#include "core/compressors/compressors.h"

namespace grace::core::compressors {
namespace {

class NoneCompressor final : public Compressor {
 public:
  CompressedTensor compress(const Tensor& grad, const std::string& name,
                            Rng& rng) override {
    return compress_owned(Tensor(grad), name, rng);
  }

  // The gradient itself becomes the part: no copy.
  CompressedTensor compress_owned(Tensor&& grad, const std::string&,
                                  Rng&) override {
    CompressedTensor ct;
    ct.ctx.shape = grad.shape();
    ct.ctx.wire_bits = static_cast<uint64_t>(grad.numel()) * 32;
    ct.parts.push_back(std::move(grad));
    grad = Tensor();
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    return wire_part(ct, 0, DType::F32, ct.ctx.shape.numel(), "none")
        .reshaped(ct.ctx.shape);
  }

  // The part itself, shaped in place: no copy.
  Tensor decompress_owned(CompressedTensor&& ct) const override {
    wire_part(ct, 0, DType::F32, ct.ctx.shape.numel(), "none");
    Tensor out = std::move(ct.parts[0]);
    out.set_shape(std::move(ct.ctx.shape));
    return out;
  }

  CommMode comm_mode() const override { return CommMode::Allreduce; }

  CompressorInfo info() const override {
    return {"none", CompressorClass::None, QNature::Deterministic, false,
            "||g||_0"};
  }
};

}  // namespace

std::unique_ptr<Compressor> make_none() {
  return std::make_unique<NoneCompressor>();
}

}  // namespace grace::core::compressors
