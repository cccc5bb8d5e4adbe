// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), shared by every
// layer — comm, core, faults — as one frame convention. CRC-32 detects
// every single-bit error and every burst error up to 32 bits, which is
// exactly the integrity guarantee the fault-injection subsystem exercises
// (docs/RESILIENCE.md).
//
// Two paths give the same value. At util::simd's Avx2 level, on a CPU with
// PCLMULQDQ, inputs of 64 bytes or more fold with carry-less multiplies
// (simd::crc32_update; Gopal et al., Intel, 2009). Tails, shorter inputs,
// the Scalar level and builds without those instructions (e.g.
// -DGRACE_NATIVE=OFF) run the table-driven slicing-by-8 below (one byte
// per step on big-endian hosts).
//
// Frame convention (core::serialize / faults::FaultInjector): the last
// 4 bytes of a framed blob are the little-endian CRC-32 of every byte
// before them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/simd.h"

namespace grace::util {

namespace detail {

// Slicing-by-8 tables: kCrc32Tables[0] is the classic byte-at-a-time
// table, and table k carries a byte's contribution through k further zero
// bytes, so one step folds 8 input bytes with 8 independent lookups.
constexpr std::array<std::array<uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr auto kCrc32Tables = make_crc32_tables();

// Slicing-by-8 from the register state `c` (the complemented CRC);
// returns the state after `data`.
inline uint32_t crc32_sliced(std::span<const std::byte> data, uint32_t c) {
  const auto& t = kCrc32Tables;
  size_t i = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // Two little-endian words put input byte j at bits [8j, 8j + 8), the
  // order the byte loop below consumes them in.
  for (; i + 8 <= data.size(); i += 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, data.data() + i, 4);
    std::memcpy(&hi, data.data() + i + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
#endif
  for (; i < data.size(); ++i) {
    c = t[0][(c ^ static_cast<uint32_t>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

}  // namespace detail

// CRC of `data`; pass a previous result as `seed` to checksum a stream in
// chunks (crc32(b, crc32(a)) == crc32(ab)).
inline uint32_t crc32(std::span<const std::byte> data, uint32_t seed = 0) {
  return ~simd::crc32_update(data.data(), static_cast<int64_t>(data.size()),
                             ~seed);
}

inline constexpr size_t kFrameCrcBytes = 4;

// Appends nothing itself — callers append frame_crc(body) little-endian.
inline uint32_t frame_crc(std::span<const std::byte> body) { return crc32(body); }

// Verifies the trailer of a framed blob. A blob too short to even hold the
// trailer is (vacuously) corrupt.
inline bool frame_crc_ok(std::span<const std::byte> frame) {
  if (frame.size() < kFrameCrcBytes) return false;
  const size_t body = frame.size() - kFrameCrcBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kFrameCrcBytes; ++i) {
    stored |= static_cast<uint32_t>(frame[body + i]) << (8 * i);
  }
  return crc32(frame.first(body)) == stored;
}

}  // namespace grace::util
