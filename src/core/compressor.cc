#include "core/compressor.h"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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

const Tensor& wire_part(const CompressedTensor& compressed, size_t i,
                        DType dtype, int64_t numel, const char* who) {
  if (i >= compressed.parts.size() || compressed.parts[i].dtype() != dtype ||
      compressed.parts[i].numel() != numel) {
    throw std::runtime_error(std::string(who) + ": part " + std::to_string(i) +
                             " does not match the payload's shape");
  }
  return compressed.parts[i];
}

int64_t wire_int(const CompressedTensor& compressed, size_t i, int64_t lo,
                 int64_t hi, const char* who) {
  const std::vector<int64_t>& ints = compressed.ctx.ints;
  if (i >= ints.size() || ints[i] < lo || ints[i] > hi) {
    throw std::runtime_error(std::string(who) + ": context int " +
                             std::to_string(i) + " outside [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]");
  }
  return ints[i];
}

std::pair<int64_t, int64_t> wire_matrix(const CompressedTensor& compressed,
                                        const char* who) {
  const Shape& shape = compressed.ctx.shape;
  const int64_t rows = shape.rank() == 0 ? 1 : shape[0];
  const int64_t m = wire_int(compressed, 0, rows, rows, who);
  if (m == 0) {
    return {m, wire_int(compressed, 1, 0,
                        std::numeric_limits<int64_t>::max(), who)};
  }
  const int64_t cols = shape.numel() / m;
  return {m, wire_int(compressed, 1, cols, cols, who)};
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
