#include "core/index_coding.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace grace::core {
namespace {

// 64-bit-accumulator bit I/O (LSB-first within each byte, the same stream
// format the original bit-at-a-time writer produced). put_bits appends up
// to 57 bits in one shift-or; whole bytes drain from the accumulator's low
// end, so a rice symbol (unary run + terminator + remainder) costs a
// handful of ALU ops instead of one call per bit.
class BitWriter {
 public:
  // Requires value < 2^count and count <= 57 (fill_ is at most 7 on entry).
  void put_bits(uint64_t value, int count) {
    assert(count >= 0 && count <= 57);
    assert(count == 64 || (value >> count) == 0);
    acc_ |= value << fill_;
    fill_ += count;
    while (fill_ >= 8) {
      buf_.push_back(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }
  // A run of n one-bits (the unary quotient of a rice symbol; n can be
  // large for outlier gaps).
  void put_ones(uint32_t n) {
    while (n >= 32) {
      put_bits(0xFFFFFFFFu, 32);
      n -= 32;
    }
    if (n > 0) put_bits((uint64_t{1} << n) - 1, static_cast<int>(n));
  }
  Tensor finish() const {
    std::vector<uint8_t> buf = buf_;
    uint64_t acc = acc_;
    for (int fill = fill_; fill > 0; fill -= 8) {
      buf.push_back(static_cast<uint8_t>(acc));
      acc >>= 8;
    }
    Tensor t(DType::U8, Shape{{static_cast<int64_t>(buf.size())}});
    std::copy(buf.begin(), buf.end(), t.u8().begin());
    return t;
  }

 private:
  std::vector<uint8_t> buf_;
  uint64_t acc_ = 0;
  int fill_ = 0;  // valid low bits of acc_, < 8 between calls
};

class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}

  // Requires count <= 56 (refill tops the accumulator up past 56 bits
  // whenever input remains). Throws on a truncated stream.
  uint64_t get_bits(int count) {
    assert(count >= 0 && count <= 56);
    refill();
    if (count > fill_) truncated();
    const uint64_t v = acc_ & ((uint64_t{1} << count) - 1);
    acc_ >>= count;
    fill_ -= count;
    return v;
  }

  // Count of consecutive one-bits up to the terminating zero (consumed).
  // Throws on a truncated stream.
  uint32_t get_unary() {
    uint32_t q = 0;
    for (;;) {
      refill();
      if (fill_ == 0) truncated();
      // High bits of acc_ beyond fill_ are zero, so countr_one is capped
      // at fill_: equality means every buffered bit was a one.
      const int ones = std::countr_one(acc_);
      if (ones >= fill_) {
        q += static_cast<uint32_t>(fill_);
        acc_ = 0;
        fill_ = 0;
      } else {
        q += static_cast<uint32_t>(ones);
        // The run and its terminator. consumed can be 64 (63 ones ending
        // exactly at the top of a full accumulator) and a 64-bit shift by
        // 64 is UB, so zero explicitly.
        const int consumed = ones + 1;
        acc_ = consumed >= 64 ? 0 : acc_ >> consumed;
        fill_ -= consumed;
        return q;
      }
    }
  }

 private:
  [[noreturn]] static void truncated() {
    throw std::runtime_error("rice_decode_indices: truncated index stream");
  }
  void refill() {
    while (fill_ <= 56 && byte_ < data_.size()) {
      acc_ |= static_cast<uint64_t>(data_[byte_++]) << fill_;
      fill_ += 8;
    }
  }

  std::span<const uint8_t> data_;
  uint64_t acc_ = 0;
  int fill_ = 0;
  size_t byte_ = 0;
};

// prev + delta as the next index of a strictly increasing int32 list;
// throws when the stream encodes anything else.
int32_t next_index(int32_t prev, uint64_t delta) {
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()) -
      static_cast<uint64_t>(int64_t{prev});
  if (delta == 0 || delta > limit) {
    throw std::runtime_error(
        "index stream does not decode to increasing int32 indices");
  }
  return static_cast<int32_t>(int64_t{prev} + static_cast<int64_t>(delta));
}

}  // namespace

Tensor rice_encode_indices(std::span<const int32_t> indices, int k) {
  if (k < 0) {
    // Mean gap -> k = floor(log2(mean)); clamp to sane range.
    double mean = 1.0;
    if (!indices.empty()) {
      mean = (static_cast<double>(indices.back()) + 1.0) /
             static_cast<double>(indices.size());
    }
    k = std::max(0, std::min(24, static_cast<int>(std::floor(std::log2(std::max(1.0, mean))))));
  }
  BitWriter w;
  w.put_bits(static_cast<uint32_t>(k), 5);  // header: divisor exponent
  int32_t prev = -1;
  for (int32_t idx : indices) {
    assert(idx > prev);
    // Gaps >= 0, in 64 bits: INT32_MAX - (-1) overflows int.
    const auto delta = static_cast<uint32_t>(int64_t{idx} - prev - 1);
    prev = idx;
    w.put_ones(delta >> k);  // unary quotient
    // Terminating zero plus the k-bit binary remainder in one append.
    const uint64_t rem = delta & ((uint64_t{1} << k) - 1);
    w.put_bits(rem << 1, k + 1);
  }
  return w.finish();
}

std::vector<int32_t> rice_decode_indices(const Tensor& encoded, int64_t n) {
  BitReader r(encoded.u8());
  const int k = static_cast<int>(r.get_bits(5));
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(n));
  int32_t prev = -1;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t q = r.get_unary();
    const uint64_t rem = r.get_bits(k);
    prev = next_index(prev, ((q << k) | rem) + 1);
    out.push_back(prev);
  }
  return out;
}

}  // namespace grace::core
