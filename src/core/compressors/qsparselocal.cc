// Qsparse-local-SGD (Basu et al., NeurIPS'19): composition of quantization
// with Top-k (or Random-k) sparsification under error feedback. We
// implement the synchronous Top-k variant: select the k largest-magnitude
// elements, then quantize the selected values to `bits` uniform levels.
// Wire: k indices (32 bits) + k codes (`bits`) + the quantization scale.
//
// Extension beyond the paper's 16 implemented methods.
#include <algorithm>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

class QsparseLocal final : public Compressor {
 public:
  QsparseLocal(double ratio, int bits) : ratio_(ratio) {
    // pack/unpack support power-of-two code widths only.
    bits_ = 1;
    for (int b : {1, 2, 4, 8}) {
      if (bits >= b) bits_ = b;
    }
  }

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng&) override {
    auto x = grad.f32();
    const auto k = std::max<int64_t>(
        1, static_cast<int64_t>(ratio_ * static_cast<double>(grad.numel())));
    auto indices = ops::topk_abs_indices(x, k);
    Tensor values = sparsify(x, indices);
    Quantized q = quantize(values.f32(), bits_);
    CompressedTensor ct;
    ct.parts = {pack(q.codes.u8(), bits_), Tensor::from_i32(indices)};
    ct.ctx.shape = grad.shape();
    ct.ctx.scalars = {q.scale};
    ct.ctx.ints = {static_cast<int64_t>(indices.size()), bits_};
    ct.ctx.wire_bits =
        static_cast<uint64_t>(indices.size()) * (32 + static_cast<uint64_t>(bits_)) + 32;
    // Part 1 is a sorted index list: eligible for the lossless wire stage.
    ct.ctx.index_parts = {1};
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    // One code and one index per kept element, no more than the tensor has.
    const int64_t n =
        wire_int(ct, 0, 0, ct.ctx.shape.numel(), "qsparselocal");
    const auto bits = static_cast<int>(wire_int(ct, 1, 1, 8, "qsparselocal"));
    wire_part(ct, 1, DType::I32, n, "qsparselocal");
    Quantized q;
    q.bits = bits;
    q.scale = ct.ctx.scalars.at(0);
    q.codes = Tensor(DType::U8, Shape{{n}});
    auto codes = unpack(ct.parts.at(0), bits, n);
    std::copy(codes.begin(), codes.end(), q.codes.u8().begin());
    Tensor values(DType::F32, Shape{{n}});
    dequantize(q, values.f32());
    return desparsify(values, ct.parts.at(1), ct.ctx.shape);
  }

  CompressorInfo info() const override {
    return {"qsparselocal", CompressorClass::Hybrid, QNature::Deterministic,
            true, "adaptive"};
  }

 private:
  double ratio_;
  int bits_;
};

}  // namespace

std::unique_ptr<Compressor> make_qsparselocal(double ratio, int bits) {
  return std::make_unique<QsparseLocal>(ratio, bits);
}

}  // namespace grace::core::compressors
