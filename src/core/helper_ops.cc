#include "core/helper_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "util/simd.h"

namespace grace::core {
namespace {

namespace simd = util::simd;

// Elementwise grain for the quantize/pack kernels. A multiple of 8 so a
// pack() chunk always starts on a byte boundary for every bits setting,
// making the packed-byte writes of different chunks disjoint.
constexpr int64_t kQuantGrain = 8192;

void check_quantize_bits(int bits) {
  if (bits < 1 || bits > 8) {
    throw std::invalid_argument("quantize: bits must be in [1, 8], got " +
                                std::to_string(bits));
  }
}

void check_pack_bits(int bits) {
  if (bits != 1 && bits != 2 && bits != 4 && bits != 8) {
    throw std::invalid_argument("pack: bits must be one of {1, 2, 4, 8}, got " +
                                std::to_string(bits));
  }
}

// A packed part comes off the wire: a CRC-valid frame can still carry one
// too short for its shape, which the decoders would read past.
void require_packed(const Tensor& packed, int64_t n_bytes, const char* what) {
  if (packed.dtype() != DType::U8 || packed.numel() < n_bytes) {
    throw std::runtime_error(std::string(what) +
                             ": packed part is shorter than its shape");
  }
}

}  // namespace

Quantized quantize(std::span<const float> x, int bits) {
  return quantize(x, bits, ops::linf_norm(x));
}

Quantized quantize(std::span<const float> x, int bits, float scale) {
  check_quantize_bits(bits);
  Quantized q;
  q.bits = bits;
  q.scale = scale;
  q.codes = Tensor(DType::U8, Shape{{static_cast<int64_t>(x.size())}});
  auto codes = q.codes.u8();
  const int levels = (1 << bits) - 1;
  // A non-positive or non-finite scale (zero tensor, or a gradient that
  // already blew up) means there is nothing to resolve: emit the midpoint
  // code everywhere. The kernel itself requires a positive finite scale.
  // Non-finite *elements* are handled inside the kernel (NaN -> midpoint,
  // +/-Inf -> the clamp rails) so malformed gradients still produce
  // deterministic codes instead of UB.
  if (!(scale > 0.0f) || !std::isfinite(scale)) {
    std::fill(codes.begin(), codes.end(), static_cast<uint8_t>(levels / 2));
    return q;
  }
  const float* xp = x.data();
  uint8_t* cp = codes.data();
  runtime::parallel_for(
      static_cast<int64_t>(x.size()), kQuantGrain, [&](int64_t b, int64_t e) {
        simd::quantize_codes(xp + b, cp + b, e - b, scale, levels);
      });
  return q;
}

void dequantize(const Quantized& q, std::span<float> out) {
  auto codes = q.codes.u8();
  assert(out.size() == codes.size());
  const int levels = (1 << q.bits) - 1;
  const uint8_t* cp = codes.data();
  float* op = out.data();
  const float scale = q.scale;
  runtime::parallel_for(
      static_cast<int64_t>(out.size()), kQuantGrain, [&](int64_t b, int64_t e) {
        simd::dequantize_values(cp + b, op + b, e - b, scale, levels);
      });
}

Tensor sparsify(std::span<const float> x, std::span<const int32_t> indices) {
  Tensor values(DType::F32, Shape{{static_cast<int64_t>(indices.size())}});
#ifndef NDEBUG
  for (int32_t idx : indices) {
    assert(idx >= 0 && static_cast<size_t>(idx) < x.size());
  }
#endif
  simd::gather_f32(x.data(), indices.data(), values.f32().data(),
                   static_cast<int64_t>(indices.size()));
  return values;
}

CompressedTensor sparse_payload(Tensor values,
                                std::span<const int32_t> indices,
                                const Shape& shape) {
  CompressedTensor ct;
  ct.parts = {std::move(values), Tensor::from_i32(indices)};
  ct.ctx.shape = shape;
  ct.ctx.wire_bits = static_cast<uint64_t>(indices.size()) * 64;
  ct.ctx.index_parts = {1};
  return ct;
}

std::span<const int32_t> wire_indices(const Tensor& indices, int64_t numel) {
  if (indices.dtype() != DType::I32) {
    throw std::runtime_error("sparse payload: index part is not i32");
  }
  const auto idx = indices.i32();
  for (int32_t i : idx) {
    if (i < 0 || i >= numel) {
      throw std::runtime_error("sparse payload: index " + std::to_string(i) +
                               " outside [0, " + std::to_string(numel) + ")");
    }
  }
  return idx;
}

Tensor desparsify(const Tensor& values, const Tensor& indices,
                  const Shape& shape) {
  // The parts come off the wire: a frame whose CRC checks out may still
  // claim any dtype, index or count, and the scatter below trusts them.
  if (values.dtype() != DType::F32 || indices.dtype() != DType::I32 ||
      values.numel() != indices.numel()) {
    throw std::runtime_error("desparsify: need one f32 value per i32 index");
  }
  const auto idx = wire_indices(indices, shape.numel());
  Tensor out = Tensor::zeros(shape);
  auto o = out.f32();
  auto v = values.f32();
  for (size_t i = 0; i < idx.size(); ++i) {
    o[static_cast<size_t>(idx[i])] = v[i];
  }
  return out;
}

Tensor pack(std::span<const uint8_t> codes, int bits) {
  check_pack_bits(bits);
  const int per_byte = 8 / bits;
  const auto n_bytes =
      (static_cast<int64_t>(codes.size()) + per_byte - 1) / per_byte;
  Tensor packed(DType::U8, Shape{{n_bytes}});
  auto out = packed.u8();
  // kQuantGrain is a multiple of every per_byte value, so chunks begin on
  // byte boundaries and each output byte is written by exactly one chunk
  // (the kernel fully produces every byte it owns; no read-modify-write).
  const uint8_t* cp = codes.data();
  uint8_t* op = out.data();
  runtime::parallel_for(
      static_cast<int64_t>(codes.size()), kQuantGrain,
      [&](int64_t b, int64_t e) {
        simd::pack_codes(cp + b, op + b / per_byte, e - b, bits);
      });
  return packed;
}

std::vector<uint8_t> unpack(const Tensor& packed, int bits, int64_t n) {
  check_pack_bits(bits);
  const int per_byte = 8 / bits;
  require_packed(packed, (n + per_byte - 1) / per_byte, "unpack");
  std::vector<uint8_t> codes(static_cast<size_t>(n));
  const uint8_t* ip = packed.u8().data();
  uint8_t* cp = codes.data();
  runtime::parallel_for(n, kQuantGrain, [&](int64_t b, int64_t e) {
    simd::unpack_codes(ip + b / per_byte, cp + b, e - b, bits);
  });
  return codes;
}

Tensor pack_signs(std::span<const float> x) {
  const auto n = static_cast<int64_t>(x.size());
  Tensor packed(DType::U8, Shape{{(n + 7) / 8}});
  const float* xp = x.data();
  uint8_t* op = packed.u8().data();
  // Straight from floats to the bitmask — no intermediate code vector.
  runtime::parallel_for(n, kQuantGrain, [&](int64_t b, int64_t e) {
    simd::pack_sign_bits(xp + b, op + b / 8, e - b);
  });
  return packed;
}

void unpack_signs(const Tensor& packed, std::span<float> out) {
  const auto n = static_cast<int64_t>(out.size());
  require_packed(packed, (n + 7) / 8, "unpack_signs");
  const uint8_t* ip = packed.u8().data();
  float* op = out.data();
  runtime::parallel_for(n, kQuantGrain, [&](int64_t b, int64_t e) {
    simd::unpack_sign_values(ip + b / 8, op + b, e - b);
  });
}

}  // namespace grace::core
