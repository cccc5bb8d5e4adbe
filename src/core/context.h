// Decompression context (`ctx` in the GRACE API): the opaque metadata a
// compressor needs to reconstruct a tensor with the original shape and
// dtype — e.g. the original shape plus norms/means/thresholds.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/shape.h"

namespace grace::core {

// Lossless wire stage for sparse-index payloads (core/index_coding.h):
// whether serialize() Rice-codes the tagged index parts. None ships raw
// 32-bit indices (the seed behavior). The values are the frame's codec
// byte; deserialize() rejects any other byte, 1 included.
enum class WireCodec : uint8_t { None = 0, Rice = 2 };

inline const char* wire_codec_name(WireCodec codec) {
  switch (codec) {
    case WireCodec::None: return "none";
    case WireCodec::Rice: return "rice";
  }
  return "unknown";
}

struct Context {
  Shape shape;                  // shape of the original (uncompressed) tensor
  std::vector<float> scalars;   // method-specific metadata (norms, means, ...)
  std::vector<int64_t> ints;    // method-specific metadata (counts, params, ...)
  // Logical wire size of the compressed representation in bits, assuming
  // ideal bit packing (1 bit per sign, log2(levels) per code word, 4 bytes
  // per float32, ...). This is what the paper's "data volume" metric counts.
  // After apply_wire_codec() this reflects the losslessly-coded payload.
  uint64_t wire_bits = 0;

  // Which parts hold sorted, strictly-increasing, non-negative i32 index
  // lists. Sparsifying compressors tag these at compress time; the wire
  // stage (apply_wire_codec) consumes the tags. Untagged payloads are
  // never touched by the lossless stage.
  std::vector<int32_t> index_parts;
  // Codec the wire stage actually applied (None until apply_wire_codec
  // finds a part where coding wins). After application, index_parts lists
  // exactly the coded parts.
  WireCodec wire_codec = WireCodec::None;
  // wire_bits before the lossless stage; 0 when no coding was applied.
  // raw_wire_bits / wire_bits is the achieved lossless ratio.
  uint64_t raw_wire_bits = 0;

  bool operator==(const Context& o) const = default;
};

}  // namespace grace::core
