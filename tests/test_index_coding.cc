// Edge cases for the lossless index coder and the 64-bit-accumulator bit
// I/O behind it: empty and single-element lists, indices at the top of
// the int32 range, rice with k = 0, forced vs auto divisor choice, and a
// golden-bytes check that pins the stream format (LSB-first within each
// byte — the format the original bit-at-a-time writer produced, which
// framed payloads already on the wire depend on).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/index_coding.h"
#include "tensor/rng.h"

namespace {

using namespace grace;
using core::rice_decode_indices;
using core::rice_encode_indices;

double bits_per_index(const Tensor& encoded, int64_t n) {
  return static_cast<double>(encoded.size_bytes()) * 8.0 /
         static_cast<double>(n);
}

std::vector<uint8_t> bytes_of(const Tensor& t) {
  auto s = t.u8();
  return {s.begin(), s.end()};
}

}  // namespace

TEST(IndexCoding, EmptyList) {
  const std::vector<int32_t> empty;
  Tensor r = rice_encode_indices(empty);
  EXPECT_EQ(r.numel(), 1);  // just the 5-bit k header, padded to a byte
  EXPECT_TRUE(rice_decode_indices(r, 0).empty());
}

TEST(IndexCoding, SingleIndex) {
  for (int32_t idx : {0, 1, 127, 128, 1 << 20}) {
    const std::vector<int32_t> one = {idx};
    EXPECT_EQ(rice_decode_indices(rice_encode_indices(one), 1), one);
    for (int k : {0, 1, 5, 12}) {
      EXPECT_EQ(rice_decode_indices(rice_encode_indices(one, k), 1), one)
          << "idx=" << idx << " k=" << k;
    }
  }
}

TEST(IndexCoding, NearInt32MaxRoundTrips) {
  const int32_t top = std::numeric_limits<int32_t>::max();
  // First delta alone is > 2^30; auto-k clamps at 24 so the unary
  // quotients stay bounded.
  const std::vector<int32_t> idx = {top - 1000000, top - 7, top - 1, top};
  EXPECT_EQ(rice_decode_indices(rice_encode_indices(idx), 4), idx);
  EXPECT_EQ(rice_decode_indices(rice_encode_indices(idx, 24), 4), idx);
  // A first index of INT32_MAX: its gap from the -1 start is 2^31, which
  // the encoder must compute wider than int.
  const std::vector<int32_t> last = {top};
  EXPECT_EQ(rice_decode_indices(rice_encode_indices(last), 1), last);
  EXPECT_EQ(rice_decode_indices(rice_encode_indices(last, 24), 1), last);
}

TEST(IndexCoding, RiceKZero) {
  // k = 0: pure unary gap coding. Adjacent indices (gap deltas of 0) cost
  // one bit each.
  const std::vector<int32_t> runs = {0, 1, 2, 3, 10};
  Tensor coded = rice_encode_indices(runs, 0);
  EXPECT_EQ(rice_decode_indices(coded, 5), runs);
  // 5 header bits + 4 one-bit symbols + one 7-bit symbol (gap 6) = 16 bits.
  EXPECT_EQ(coded.numel(), 2);
}

TEST(IndexCoding, ForcedKMatchesAutoKDecoding) {
  Rng rng(31);
  const auto idx = rng.sample_indices(1 << 16, 700);
  const int64_t n = static_cast<int64_t>(idx.size());
  const Tensor auto_coded = rice_encode_indices(idx);
  EXPECT_EQ(rice_decode_indices(auto_coded, n), idx);
  double best_forced = 1e300;
  for (int k = 0; k <= 12; ++k) {
    const Tensor coded = rice_encode_indices(idx, k);
    EXPECT_EQ(rice_decode_indices(coded, n), idx) << "k=" << k;
    best_forced = std::min(best_forced, bits_per_index(coded, n));
  }
  // Auto-k (from the mean gap) must land near the best forced divisor.
  EXPECT_LE(bits_per_index(auto_coded, n), best_forced * 1.25);
}

TEST(IndexCoding, GoldenStreamBytes) {
  // Pins the LSB-first-within-byte stream format of the 64-bit writer.
  // rice({0,1,3}, k=2): header 2 in 5 bits, two zero symbols (gap deltas
  // 0), then quotient 0 + remainder 1 -> 14 bits total.
  EXPECT_EQ(bytes_of(rice_encode_indices(std::vector<int32_t>{0, 1, 3}, 2)),
            (std::vector<uint8_t>{0x02, 0x10}));
}

TEST(IndexCoding, SparseSampleRoundTrips) {
  Rng rng(37);
  for (int64_t k : {int64_t{1}, int64_t{100}, int64_t{4096}}) {
    const auto idx = rng.sample_indices(1 << 20, k);
    const int64_t n = static_cast<int64_t>(idx.size());
    EXPECT_EQ(rice_decode_indices(rice_encode_indices(idx), n), idx);
  }
}
