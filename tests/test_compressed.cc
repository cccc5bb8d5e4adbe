// CompressedTensor serialization and Context equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed.h"
#include "core/registry.h"
#include "util/crc32.h"

namespace grace::core {
namespace {

CompressedTensor sample() {
  CompressedTensor ct;
  ct.parts.push_back(Tensor::from(std::vector<float>{1.5f, -2.5f}));
  Tensor idx(DType::I32, Shape{{3}});
  idx.i32()[0] = 7;
  idx.i32()[1] = -1;
  idx.i32()[2] = 1 << 20;
  ct.parts.push_back(idx);
  Tensor bytes(DType::U8, Shape{{5}});
  for (int i = 0; i < 5; ++i) bytes.u8()[static_cast<size_t>(i)] = static_cast<uint8_t>(i * 50);
  ct.parts.push_back(bytes);
  ct.ctx.shape = Shape{{4, 8}};
  ct.ctx.scalars = {3.14f, -1.0f};
  ct.ctx.ints = {42, -7};
  ct.ctx.wire_bits = 12345;
  return ct;
}

TEST(Compressed, SerializeRoundTrip) {
  CompressedTensor ct = sample();
  CompressedTensor back = deserialize(serialize(ct));
  ASSERT_EQ(back.parts.size(), 3u);
  EXPECT_EQ(back.parts[0].dtype(), DType::F32);
  EXPECT_FLOAT_EQ(back.parts[0].f32()[1], -2.5f);
  EXPECT_EQ(back.parts[1].dtype(), DType::I32);
  EXPECT_EQ(back.parts[1].i32()[2], 1 << 20);
  EXPECT_EQ(back.parts[2].dtype(), DType::U8);
  EXPECT_EQ(back.parts[2].u8()[4], 200);
  EXPECT_EQ(back.ctx, ct.ctx);
}

// The frame layout compressed.h documents, appended field by field.
class ReferenceFrame {
 public:
  explicit ReferenceFrame(const CompressedTensor& ct) {
    put<uint8_t>(static_cast<uint8_t>(ct.ctx.wire_codec));
    put<uint32_t>(static_cast<uint32_t>(ct.ctx.index_parts.size()));
    for (int32_t pi : ct.ctx.index_parts) put<int32_t>(pi);
    put<uint32_t>(static_cast<uint32_t>(ct.parts.size()));
    for (size_t j = 0; j < ct.parts.size(); ++j) {
      const Tensor& part = ct.parts[j];
      put<uint8_t>(static_cast<uint8_t>(part.dtype()));
      put_shape(part.shape());
      const auto& tags = ct.ctx.index_parts;
      const auto slot = std::find(tags.begin(), tags.end(), static_cast<int32_t>(j));
      if (ct.ctx.wire_codec == WireCodec::None || slot == tags.end()) {
        put_bytes(part.bytes());
        continue;
      }
      const Tensor& coded = ct.coded_indices.at(static_cast<size_t>(slot - tags.begin()));
      put<uint32_t>(static_cast<uint32_t>(coded.size_bytes()));
      put_bytes(coded.bytes());
    }
    put_shape(ct.ctx.shape);
    put<uint32_t>(static_cast<uint32_t>(ct.ctx.scalars.size()));
    for (float v : ct.ctx.scalars) put<float>(v);
    put<uint32_t>(static_cast<uint32_t>(ct.ctx.ints.size()));
    for (int64_t v : ct.ctx.ints) put<int64_t>(v);
    put<uint64_t>(ct.ctx.wire_bits);
    put<uint64_t>(ct.ctx.raw_wire_bits);
    const uint32_t crc = util::crc32(bytes);
    for (int i = 0; i < 4; ++i) put<uint8_t>(static_cast<uint8_t>(crc >> (8 * i)));
  }

  std::vector<std::byte> bytes;

 private:
  template <typename T>
  void put(T v) {
    std::byte raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes.insert(bytes.end(), raw, raw + sizeof(T));
  }
  void put_bytes(std::span<const std::byte> b) {
    bytes.insert(bytes.end(), b.begin(), b.end());
  }
  void put_shape(const Shape& s) {
    put<uint32_t>(static_cast<uint32_t>(s.rank()));
    for (int64_t d : s.dims()) put<int64_t>(d);
  }
};

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(Compressed, FrameMatchesTheDocumentedLayoutAndRoundTrips) {
  // serialize sizes the frame first and writes it once into the blob's
  // storage; the bytes must be the documented fields in order. One frame
  // per compressor spec, plus a Rice-coded topk frame.
  Rng rng(3);
  Tensor grad(DType::F32, Shape({40, 12}));
  rng.fill_normal(grad.f32(), 0.0f, 1.0f);
  std::vector<std::string> roster = registered_names();
  for (const auto& name : extension_names()) roster.push_back(name);
  std::vector<std::pair<std::string, CompressedTensor>> payloads;
  for (const std::string& spec : roster) {
    payloads.emplace_back(spec, make_compressor(spec)->compress(grad, "g", rng));
  }
  CompressedTensor coded = make_compressor("topk(0.25)")->compress(grad, "g", rng);
  apply_wire_codec(coded, WireCodec::Rice);
  ASSERT_EQ(coded.ctx.wire_codec, WireCodec::Rice);
  payloads.emplace_back("coded topk", std::move(coded));

  for (const auto& [name, ct] : payloads) {
    SCOPED_TRACE(name);
    const Tensor blob = serialize(ct);
    ASSERT_EQ(blob.dtype(), DType::U8);
    EXPECT_TRUE(same_bytes(blob.bytes(), ReferenceFrame(ct).bytes));

    const CompressedTensor back = deserialize(blob);
    ASSERT_EQ(back.parts.size(), ct.parts.size());
    for (size_t j = 0; j < ct.parts.size(); ++j) {
      EXPECT_EQ(back.parts[j].dtype(), ct.parts[j].dtype()) << "part " << j;
      EXPECT_EQ(back.parts[j].shape(), ct.parts[j].shape()) << "part " << j;
      EXPECT_TRUE(same_bytes(back.parts[j].bytes(), ct.parts[j].bytes()))
          << "part " << j;
    }
    ASSERT_EQ(back.coded_indices.size(), ct.coded_indices.size());
    for (size_t j = 0; j < ct.coded_indices.size(); ++j) {
      EXPECT_TRUE(same_bytes(back.coded_indices[j].bytes(),
                             ct.coded_indices[j].bytes()));
    }
    EXPECT_EQ(back.ctx, ct.ctx);
    // The round-tripped payload serializes to the same frame.
    EXPECT_TRUE(same_bytes(serialize(back).bytes(), blob.bytes()));
  }
}

TEST(Compressed, NonU8BlobThrows) {
  EXPECT_THROW(deserialize(Tensor::zeros(Shape{{16}})), std::runtime_error);
}

TEST(Compressed, EmptyParts) {
  CompressedTensor ct;
  ct.ctx.shape = Shape{{0}};
  CompressedTensor back = deserialize(serialize(ct));
  EXPECT_TRUE(back.parts.empty());
  EXPECT_EQ(back.ctx.shape, Shape({0}));
}

TEST(Compressed, WireBytesRoundsUp) {
  CompressedTensor ct;
  ct.ctx.wire_bits = 9;
  EXPECT_EQ(ct.wire_bytes(), 2u);
  ct.ctx.wire_bits = 16;
  EXPECT_EQ(ct.wire_bytes(), 2u);
  ct.ctx.wire_bits = 0;
  EXPECT_EQ(ct.wire_bytes(), 0u);
}

TEST(Compressed, StorageBytes) {
  CompressedTensor ct = sample();
  EXPECT_EQ(ct.storage_bytes(), 2u * 4 + 3u * 4 + 5u);
}

TEST(Compressed, TruncatedBlobThrows) {
  Tensor blob = serialize(sample());
  Tensor cut(DType::U8, Shape{{blob.numel() / 2}});
  std::copy_n(blob.u8().begin(), cut.numel(), cut.u8().begin());
  EXPECT_THROW(deserialize(cut), std::runtime_error);
}

// A sparsifier-shaped payload: k values + k sorted indices tagged for the
// lossless wire stage.
CompressedTensor sparse_sample(int64_t k, int64_t range) {
  CompressedTensor ct;
  Tensor values(DType::F32, Shape{{k}});
  Tensor idx(DType::I32, Shape{{k}});
  for (int64_t i = 0; i < k; ++i) {
    values.f32()[static_cast<size_t>(i)] = static_cast<float>(i) * 0.5f;
    idx.i32()[static_cast<size_t>(i)] =
        static_cast<int32_t>(i * (range / k) + (i % 3));
  }
  ct.parts = {values, idx};
  ct.ctx.shape = Shape{{range}};
  ct.ctx.wire_bits = static_cast<uint64_t>(k) * 64;
  ct.ctx.index_parts = {1};
  return ct;
}

TEST(WireCodec, Names) {
  EXPECT_STREQ(wire_codec_name(WireCodec::None), "none");
  EXPECT_STREQ(wire_codec_name(WireCodec::Rice), "rice");
}

TEST(WireCodec, ApplyShrinksWireAndFrameAndRoundTrips) {
  CompressedTensor ct = sparse_sample(512, 1 << 18);
  const uint64_t raw_bits = ct.ctx.wire_bits;
  const size_t raw_frame = serialize(ct).size_bytes();
  apply_wire_codec(ct, WireCodec::Rice);
  EXPECT_EQ(ct.ctx.wire_codec, WireCodec::Rice);
  EXPECT_EQ(ct.ctx.raw_wire_bits, raw_bits);
  EXPECT_LT(ct.ctx.wire_bits, raw_bits);
  // Raw parts stay intact for decompress(); the coded payload rides in
  // the cache and the frame really shrinks.
  ASSERT_EQ(ct.parts.size(), 2u);
  EXPECT_EQ(ct.parts[1].dtype(), DType::I32);
  ASSERT_EQ(ct.coded_indices.size(), 1u);
  Tensor blob = serialize(ct);
  EXPECT_LT(blob.size_bytes(), raw_frame);
  CompressedTensor back = deserialize(blob);
  ASSERT_EQ(back.parts.size(), 2u);
  EXPECT_EQ(back.parts[1].dtype(), DType::I32);
  for (int64_t i = 0; i < 512; ++i) {
    ASSERT_EQ(back.parts[1].i32()[static_cast<size_t>(i)],
              ct.parts[1].i32()[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(back.ctx, ct.ctx);
}

TEST(WireCodec, RetiredCodecByteOneThrows) {
  // The frame's first byte is the codec: 0 none, 2 rice. Any other value,
  // 1 included, is malformed even under a valid CRC.
  CompressedTensor ct = sparse_sample(64, 1 << 12);
  apply_wire_codec(ct, WireCodec::Rice);
  Tensor blob = serialize(ct);
  auto bytes = blob.u8();
  ASSERT_EQ(bytes[0], 2);
  bytes[0] = 1;
  const size_t body = bytes.size() - util::kFrameCrcBytes;
  const uint32_t crc = util::frame_crc(blob.bytes().first(body));
  for (size_t i = 0; i < util::kFrameCrcBytes; ++i) {
    bytes[body + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_THROW(deserialize(blob), std::runtime_error);
}

TEST(WireCodec, NoneAndUntaggedAreNoOps) {
  CompressedTensor ct = sparse_sample(64, 1 << 12);
  const Context before = ct.ctx;
  apply_wire_codec(ct, WireCodec::None);
  EXPECT_EQ(ct.ctx, before);
  EXPECT_TRUE(ct.coded_indices.empty());

  CompressedTensor untagged = sparse_sample(64, 1 << 12);
  untagged.ctx.index_parts.clear();
  apply_wire_codec(untagged, WireCodec::Rice);
  EXPECT_EQ(untagged.ctx.wire_codec, WireCodec::None);
  EXPECT_EQ(untagged.ctx.wire_bits, 64u * 64u);
}

TEST(WireCodec, NotAWinShipsRaw) {
  // Two indices whose gaps both exceed 2^28: auto-k clamps at 24, so each
  // gap costs a unary quotient of 31 or 32 bits plus 25, and the coded
  // payload (15 bytes) loses to 2 * 32 raw bits. The stage must keep the
  // part raw and leave accounting untouched.
  CompressedTensor ct;
  Tensor idx(DType::I32, Shape{{2}});
  idx.i32()[0] = 1 << 29;
  idx.i32()[1] = 1 << 30;
  ct.parts = {idx};
  ct.ctx.shape = Shape{{2}};
  ct.ctx.wire_bits = 64;
  ct.ctx.index_parts = {0};
  apply_wire_codec(ct, WireCodec::Rice);
  EXPECT_EQ(ct.ctx.wire_codec, WireCodec::None);
  EXPECT_EQ(ct.ctx.wire_bits, 64u);
  EXPECT_EQ(ct.ctx.raw_wire_bits, 0u);
  EXPECT_TRUE(ct.coded_indices.empty());
  CompressedTensor back = deserialize(serialize(ct));
  EXPECT_EQ(back.parts[0].i32()[1], 1 << 30);
}

TEST(WireCodec, RejectsMalformedTaggedParts) {
  // Unsorted indices.
  CompressedTensor ct = sparse_sample(4, 1 << 10);
  ct.parts[1].i32()[0] = 999;  // breaks strict ascent
  EXPECT_THROW(apply_wire_codec(ct, WireCodec::Rice), std::invalid_argument);

  // Negative index.
  CompressedTensor neg = sparse_sample(4, 1 << 10);
  neg.parts[1].i32()[0] = -3;
  EXPECT_THROW(apply_wire_codec(neg, WireCodec::Rice), std::invalid_argument);

  // Tag pointing at a non-I32 part.
  CompressedTensor wrong = sparse_sample(4, 1 << 10);
  wrong.ctx.index_parts = {0};
  EXPECT_THROW(apply_wire_codec(wrong, WireCodec::Rice),
               std::invalid_argument);

  // Tag out of range.
  CompressedTensor oob = sparse_sample(4, 1 << 10);
  oob.ctx.index_parts = {5};
  EXPECT_THROW(apply_wire_codec(oob, WireCodec::Rice), std::invalid_argument);
}

TEST(WireCodec, DeserializeReencodesWhenCacheEmpty) {
  // serialize() must produce the coded frame even when coded_indices was
  // dropped (e.g. a copy that cleared the cache): re-encode on the fly.
  CompressedTensor ct = sparse_sample(256, 1 << 16);
  apply_wire_codec(ct, WireCodec::Rice);
  Tensor with_cache = serialize(ct);
  ct.coded_indices.clear();
  Tensor without_cache = serialize(ct);
  ASSERT_EQ(with_cache.size_bytes(), without_cache.size_bytes());
  for (size_t i = 0; i < with_cache.u8().size(); ++i) {
    ASSERT_EQ(with_cache.u8()[i], without_cache.u8()[i]);
  }
}

}  // namespace
}  // namespace grace::core
