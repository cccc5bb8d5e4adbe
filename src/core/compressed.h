// The unit of compressed communication: a list of payload tensors (the
// `[comp]` of the GRACE API) plus the decompression context. Also provides
// byte-exact serialization to a single u8 tensor so compressed payloads of
// any structure can ride the Allgather/Broadcast collectives.
#pragma once

#include <cstdint>
#include <vector>

#include "core/context.h"
#include "tensor/tensor.h"

namespace grace::core {

struct CompressedTensor {
  std::vector<Tensor> parts;
  // Lossless wire stage cache: the delta-coded payloads for the parts in
  // ctx.index_parts, filled by apply_wire_codec (and by deserialize).
  // Purely a wire-format artifact — decompress() always reads the raw
  // parts, which stay intact.
  std::vector<Tensor> coded_indices;
  Context ctx;

  // Logical wire size (ideal bit packing), rounded up to whole bytes.
  uint64_t wire_bytes() const { return (ctx.wire_bits + 7) / 8; }
  // Actual bytes held in the payload tensors (our in-memory representation;
  // >= wire_bytes when a method stores codes unpacked for speed).
  uint64_t storage_bytes() const;
};

// Run the lossless wire stage: delta-code every part tagged in
// ctx.index_parts with `codec` (core/index_coding.h), caching the coded
// payloads in coded_indices and shrinking ctx.wire_bits to the coded size
// (ctx.raw_wire_bits keeps the pre-coding figure). Parts where the coded
// form is not strictly smaller ship raw and drop out of index_parts, so a
// pathological index list can never grow the wire. Throws
// std::invalid_argument if a tagged part is not an i32 tensor holding
// non-negative, strictly increasing indices. A no-op for WireCodec::None
// or untagged payloads.
void apply_wire_codec(CompressedTensor& ct, WireCodec codec);

// Serialize to a flat byte tensor and back. Round-trip is bit-exact.
// Parts coded by apply_wire_codec travel in their coded form — the frame
// is really smaller, not just accounted smaller — and deserialize expands
// them back to identical i32 parts (re-encoding on the fly if the cache
// is empty, e.g. after a deserialize/serialize bounce).
// The frame carries a CRC32 trailer (util/crc32.h): deserialize verifies
// it and throws std::runtime_error on any corruption or truncation, so a
// damaged payload is detected and retransmitted (docs/RESILIENCE.md)
// instead of silently aggregated. The trailer is physical framing only —
// ctx.wire_bits, the logical wire size, is unchanged by it.
//
// Frame layout, fields in host byte order (little-endian on every
// supported host), in this order:
//   u8 ctx.wire_codec; u32 count + i32 each of ctx.index_parts;
//   u32 part count; per part: u8 dtype, u32 rank, i64 each dim, then the
//     raw bytes, or (a coded part) a u32 byte length and the coded payload;
//   u32 rank + i64 each dim of ctx.shape; u32 count + f32 each scalar;
//   u32 count + i64 each of ctx.ints; u64 wire_bits; u64 raw_wire_bits;
//   the u32 CRC32 trailer.
// serialize sizes the frame first and writes each byte once into the
// blob's own storage; deserialize builds each part straight from the
// frame's bytes.
Tensor serialize(const CompressedTensor& ct);
CompressedTensor deserialize(const Tensor& blob);

}  // namespace grace::core
