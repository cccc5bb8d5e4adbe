#include "core/compressor.h"

#include <stdexcept>
#include <string>

#include "tensor/ops.h"

namespace grace::core {

void check_fold_size(const CompressedTensor& compressed,
                     std::span<const float> acc) {
  if (compressed.ctx.shape.numel() != static_cast<int64_t>(acc.size())) {
    throw std::runtime_error(
        "decompress_add: payload holds " +
        std::to_string(compressed.ctx.shape.numel()) +
        " elements, accumulator " + std::to_string(acc.size()));
  }
}

void Compressor::decompress_add(const CompressedTensor& compressed,
                                std::span<float> acc) const {
  check_fold_size(compressed, acc);
  ops::add(acc, decompress(compressed).f32());
}

std::string compressor_class_name(CompressorClass c) {
  switch (c) {
    case CompressorClass::None: return "Baseline";
    case CompressorClass::Quantization: return "Quantization";
    case CompressorClass::Sparsification: return "Sparsification";
    case CompressorClass::Hybrid: return "Hybrid";
    case CompressorClass::LowRank: return "Low-Rank";
  }
  return "?";
}

}  // namespace grace::core
