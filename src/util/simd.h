// Runtime-dispatched SIMD kernels for the codec hot paths (CGX-style
// hand-vectorized quantization, arXiv:2111.08617): quantize/dequantize,
// QSGD's signed dequantize (write or accumulate), k-bit code packing,
// sign packing, sparsify gather, the threshold scan, the GEMM's operand
// transpose, the frame CRC's carry-less-multiply fold and four
// xoshiro256++ lanes of uniform draws. One scalar
// reference implementation per kernel plus an AVX2 variant chosen once at
// runtime.
//
// Hard invariant: every vector path is BITWISE IDENTICAL to the scalar
// reference — same IEEE-754 operation order (div, add, mul are exactly
// rounded; no FMA contraction, no reassociation), same rounding rule,
// same NaN handling. The repo's determinism guarantees (bit-identical
// training under any GRACE_NUM_THREADS) extend to "under any SIMD
// level": a -DGRACE_NATIVE=OFF (scalar-only) build reproduces the default
// run bit for bit. tests/test_simd.cc enforces this per kernel; the
// training-CRC check rides the existing determinism tests.
//
// Dispatch order: set_level_for_testing() override > detected_level()
// (the compile-time ISA macro ANDed with cpuid). Kernels dispatch per
// call; callers hand them whole chunks (the runtime's parallel_for grain,
// kilobytes at a time) so the check is amortized.
#pragma once

#include <cstddef>
#include <cstdint>

namespace grace::util::simd {

enum class Level : int {
  Scalar = 0,
  Avx2 = 1,  // AVX2 (x86 256-bit)
};

const char* level_name(Level level);

// Best level this binary supports on this CPU (compile-time ISA AND cpuid).
Level detected_level();
// Level kernels actually dispatch on: the test override, else
// detected_level().
Level active_level();

// Force a level for A/B testing (bench_kernels, tests). Requests the
// binary cannot honor (not compiled in / not supported by the CPU) clamp
// to Scalar. Returns the level actually installed.
Level set_level_for_testing(Level level);
void clear_level_for_testing();

// --- Kernels -------------------------------------------------------------
// All kernels operate on raw pointers over a caller-chosen range so the
// deterministic parallel runtime can hand each chunk to the same code.

// codes[i] = round((x[i] / scale + 1) * 0.5 * levels) clamped to
// [0, levels]; the rounding rule is floor(t + 0.5f) in float32 (round
// half up). Non-finite inputs map deterministically: NaN -> levels / 2
// (the midpoint code, same as the zero-scale fill), +Inf -> levels,
// -Inf -> 0. scale must be > 0 and finite.
void quantize_codes(const float* x, uint8_t* codes, int64_t n, float scale,
                    int levels);

// out[i] = (codes[i] / levels * 2 - 1) * scale, exactly this op order.
void dequantize_values(const uint8_t* codes, float* out, int64_t n,
                       float scale, int levels);

// Signed dequantize (QSGD's decode): v = (norm * codes[i]) / levels,
// exactly this op order (no reciprocal, no FMA), negated where bit i of
// `signs` is clear, so code 0 with a clear bit gives -0.0f. The write form
// stores out[i] = v; the accumulate form adds, out[i] += v. `signs` holds
// (n + 7) / 8 bytes, bit i of byte i / 8 (pack_sign_bits' layout).
void dequantize_signed(const uint8_t* codes, const uint8_t* signs, float* out,
                       int64_t n, float norm, int levels, bool accumulate);

// Pack n code words of `bits` bits (bits in {1,2,4,8}, codes pre-masked
// by the caller contract to < 2^bits is NOT required: high bits are
// masked off here) into out, little-endian within each byte. Writes
// exactly (n * bits + 7) / 8 bytes; every output byte is fully produced
// here (no read-modify-write), so parallel chunks that start on byte
// boundaries are race-free.
void pack_codes(const uint8_t* codes, uint8_t* out, int64_t n, int bits);

// Inverse of pack_codes: expand n code words out of `packed`.
void unpack_codes(const uint8_t* packed, uint8_t* codes, int64_t n, int bits);

// Pack sign bits: bit i = (x[i] >= 0.0f), so -0.0f maps to 1 and NaN to 0
// (IEEE compare semantics, identical scalar and vector). Writes
// (n + 7) / 8 bytes.
void pack_sign_bits(const float* x, uint8_t* out, int64_t n);

// out[i] = bit i of `packed` ? +1.0f : -1.0f.
void unpack_sign_values(const uint8_t* packed, float* out, int64_t n);

// Sparsify gather: out[i] = x[indices[i]]. Bounds are the caller's
// contract (debug-asserted there).
void gather_f32(const float* x, const int32_t* indices, float* out, int64_t n);

// Threshold scan: append the indices i in [lo, hi) with |x[i]| > threshold
// (NaN compares false, as in the scalar fabs test) to out, in ascending
// order; returns how many were written. out must have room for hi - lo.
int64_t threshold_select(const float* x, int64_t lo, int64_t hi,
                         float threshold, int32_t* out);

// Transpose, for the output rows [j0, j1): out(n x m)[j, i] = in(m x n)[i, j].
// At Avx2 whole 8x8 tiles pass through registers; the edges and the
// Scalar level run the strided reference loop. It only moves bits, so
// every level writes the same output.
void transpose_f32(const float* in, int64_t m, int64_t n, float* out,
                   int64_t j0, int64_t j1);

// util::crc32's register update: the state (the complemented CRC) after
// absorbing data[0, n). At Avx2 on a CPU with PCLMULQDQ, whole 16-byte
// blocks of an input of at least 64 bytes fold by carry-less
// multiplication; the tail, shorter inputs and the Scalar level run
// slicing-by-8 (util::detail::crc32_sliced). Both give the same CRC.
uint32_t crc32_update(const std::byte* data, int64_t n, uint32_t state);

// Four xoshiro256++ generators side by side, drawing Rng::uniform's
// doubles: state[w][k] is word w of lane k's state. Steps every lane
// `count` times and writes lane k's j-th draw, (next >> 11) * 2^-53, to
// out[k * count + j]. At Avx2 each word of the four states is one
// register, and each 53-bit integer converts to its double exactly as two
// halves set into the mantissas of 2^31 and 2^-1 (AVX2 has no u64 to
// double convert); the Scalar level steps the lanes one after another.
// Both write the same doubles and leave the same states.
void xoshiro_uniforms4(uint64_t (&state)[4][4], double* out, int64_t count);

}  // namespace grace::util::simd
