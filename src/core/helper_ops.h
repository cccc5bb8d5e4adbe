// The GRACE helper API from §IV-B of the paper:
//   quantize / dequantize   — value -> lower-bit code words and back
//   sparsify / desparsify   — select elements / restore original shape;
//                             sparse_payload ships what sparsify selects
//   pack / unpack           — k-bit code words <-> dense byte buffers
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compressed.h"
#include "tensor/tensor.h"

namespace grace::core {

// Uniform symmetric quantization of x into 2^bits levels over [-scale, scale]
// (scale = max |x| unless given). Returns codes in [0, 2^bits - 1];
// dequantize maps code -> value. Throws std::invalid_argument unless bits
// is in [1, 8]. Non-finite elements map to deterministic codes: NaN to the
// midpoint code (dequantizes near 0), +/-Inf to the clamp rails; a
// non-positive or NaN scale emits the midpoint code everywhere.
// The hot loops dispatch through util/simd.h; the AVX2 and scalar paths
// produce bit-identical codes.
struct Quantized {
  Tensor codes;  // u8, one code per element
  float scale = 0.0f;
  int bits = 8;
};
Quantized quantize(std::span<const float> x, int bits);
Quantized quantize(std::span<const float> x, int bits, float scale);
void dequantize(const Quantized& q, std::span<float> out);

// Gather x[indices] into a dense values tensor.
Tensor sparsify(std::span<const float> x, std::span<const int32_t> indices);
// Scatter values back into a zero-filled tensor of `shape`. Throws
// std::runtime_error unless values is f32, indices is i32 with one index
// per value, and every index lies in [0, shape.numel()).
Tensor desparsify(const Tensor& values, const Tensor& indices,
                  const Shape& shape);
// The payload every sparsifier ships: part 0 the kept `values` (f32, one
// per index), part 1 their `indices` into `shape` as i32, 64 wire bits per
// kept element, and part 1 tagged for the lossless wire stage, which takes
// a strictly increasing index list (core/compressed.h apply_wire_codec).
CompressedTensor sparse_payload(Tensor values,
                                std::span<const int32_t> indices,
                                const Shape& shape);
// The index rule desparsify applies, for decoders that scatter by other
// means: `indices` off the wire as positions into `numel` elements.
// Throws std::runtime_error unless it is i32 and every index lies in
// [0, numel).
std::span<const int32_t> wire_indices(const Tensor& indices, int64_t numel);

// Pack n code words of `bits` bits each into a dense u8 tensor
// (little-endian within each byte). unpack restores the code words.
// Throws std::invalid_argument unless bits is one of {1, 2, 4, 8} — the
// release build strips asserts, so this must be a real check: a bad width
// would silently corrupt every code word on the wire. unpack (and
// unpack_signs) also throw std::runtime_error unless `packed` is a u8 part
// long enough for the codes asked for: it comes off the wire.
Tensor pack(std::span<const uint8_t> codes, int bits);
std::vector<uint8_t> unpack(const Tensor& packed, int bits, int64_t n);

// Convenience: pack a sign bitmask (x[i] >= 0 -> 1) and unpack to ±1 floats.
Tensor pack_signs(std::span<const float> x);
void unpack_signs(const Tensor& packed, std::span<float> out);

}  // namespace grace::core
