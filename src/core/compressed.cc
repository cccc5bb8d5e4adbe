#include "core/compressed.h"

#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/index_coding.h"
#include "util/crc32.h"

namespace grace::core {
namespace {

class ByteWriter {
 public:
  template <typename T>
  void put(T v) {
    const auto at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }
  void put_bytes(std::span<const std::byte> bytes) {
    if (bytes.empty()) return;  // data() may be null; memcpy must not see it
    const auto at = buf_.size();
    buf_.resize(at + bytes.size());
    std::memcpy(buf_.data() + at, bytes.data(), bytes.size());
  }
  // Appends the little-endian CRC32 of everything written so far, closing
  // the frame per the util/crc32.h convention. Must be the last write.
  void seal_crc32() {
    const uint32_t crc = util::frame_crc(buf_);
    for (size_t i = 0; i < util::kFrameCrcBytes; ++i) {
      buf_.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFFu));
    }
  }
  Tensor finish() const {
    Tensor t(DType::U8, Shape{{static_cast<int64_t>(buf_.size())}});
    std::memcpy(t.bytes().data(), buf_.data(), buf_.size());
    return t;
  }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}
  template <typename T>
  T get() {
    T v;
    check(sizeof(T));
    std::memcpy(&v, data_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return v;
  }
  void get_bytes(std::span<std::byte> out) {
    check(out.size());
    if (out.empty()) return;  // data() may be null; memcpy must not see it
    std::memcpy(out.data(), data_.data() + at_, out.size());
    at_ += out.size();
  }
  size_t remaining() const { return data_.size() - at_; }
  // A count of `item_bytes`-sized records that must still fit in the blob,
  // checked before anything is sized from it.
  uint32_t get_count(size_t item_bytes) {
    const auto n = get<uint32_t>();
    check(static_cast<size_t>(n) * item_bytes);
    return n;
  }

 private:
  void check(size_t n) const {
    if (n > data_.size() - at_) {
      throw std::runtime_error("CompressedTensor deserialize: truncated blob");
    }
  }
  std::span<const std::byte> data_;
  size_t at_ = 0;
};

void put_shape(ByteWriter& w, const Shape& s) {
  w.put<uint32_t>(static_cast<uint32_t>(s.rank()));
  for (int64_t d : s.dims()) w.put<int64_t>(d);
}

[[noreturn]] void malformed(const std::string& why) {
  throw std::runtime_error("CompressedTensor deserialize: " + why);
}

// A shape whose element count is at most `max_numel`; negative dims and
// counts that would overflow are rejected before any product is formed.
Shape get_shape(ByteReader& r, int64_t max_numel) {
  const auto rank = r.get_count(sizeof(int64_t));
  std::vector<int64_t> dims(rank);
  int64_t numel = 1;
  for (auto& d : dims) {
    d = r.get<int64_t>();
    if (d < 0 || (d > 0 && numel > max_numel / d)) malformed("bad shape");
    numel *= d;
  }
  return Shape(std::move(dims));
}

DType get_dtype(ByteReader& r) {
  const auto v = r.get<uint8_t>();
  if (v > static_cast<uint8_t>(DType::U8)) malformed("unknown dtype");
  return static_cast<DType>(v);
}

// Position of part j in ctx.index_parts, or -1 when j is not wire-coded.
int coded_slot(const Context& ctx, uint32_t part) {
  if (ctx.wire_codec == WireCodec::None) return -1;
  for (size_t s = 0; s < ctx.index_parts.size(); ++s) {
    if (ctx.index_parts[s] == static_cast<int32_t>(part)) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

}  // namespace

uint64_t CompressedTensor::storage_bytes() const {
  uint64_t total = 0;
  for (const auto& p : parts) total += p.size_bytes();
  return total;
}

void apply_wire_codec(CompressedTensor& ct, WireCodec codec) {
  ct.coded_indices.clear();
  ct.ctx.wire_codec = WireCodec::None;
  ct.ctx.raw_wire_bits = 0;
  if (codec == WireCodec::None || ct.ctx.index_parts.empty()) return;

  std::vector<int32_t> kept;
  std::vector<Tensor> coded;
  uint64_t saved_bits = 0;
  for (int32_t pi : ct.ctx.index_parts) {
    if (pi < 0 || static_cast<size_t>(pi) >= ct.parts.size()) {
      throw std::invalid_argument(
          "apply_wire_codec: index_parts entry out of range");
    }
    const Tensor& part = ct.parts[static_cast<size_t>(pi)];
    if (part.dtype() != DType::I32) {
      throw std::invalid_argument(
          "apply_wire_codec: tagged part is not an i32 index tensor");
    }
    const auto idx = part.i32();
    int32_t prev = -1;
    for (int32_t v : idx) {
      if (v <= prev) {
        throw std::invalid_argument(
            "apply_wire_codec: index part must be non-negative and strictly "
            "increasing");
      }
      prev = v;
    }
    Tensor enc = rice_encode_indices(idx);
    const uint64_t raw_bits = static_cast<uint64_t>(idx.size()) * 32;
    const uint64_t coded_bits = static_cast<uint64_t>(enc.size_bytes()) * 8;
    if (coded_bits >= raw_bits) continue;  // coding loses; ship raw
    saved_bits += raw_bits - coded_bits;
    kept.push_back(pi);
    coded.push_back(std::move(enc));
  }
  if (kept.empty()) return;
  ct.ctx.raw_wire_bits = ct.ctx.wire_bits;
  ct.ctx.wire_bits -= saved_bits;
  ct.ctx.wire_codec = codec;
  ct.ctx.index_parts = std::move(kept);
  ct.coded_indices = std::move(coded);
}

Tensor serialize(const CompressedTensor& ct) {
  ByteWriter w;
  // Wire-stage header first: deserialize must know which parts are coded
  // before it reads them.
  w.put<uint8_t>(static_cast<uint8_t>(ct.ctx.wire_codec));
  w.put<uint32_t>(static_cast<uint32_t>(ct.ctx.index_parts.size()));
  for (int32_t pi : ct.ctx.index_parts) w.put<int32_t>(pi);
  w.put<uint32_t>(static_cast<uint32_t>(ct.parts.size()));
  for (uint32_t j = 0; j < ct.parts.size(); ++j) {
    const Tensor& p = ct.parts[j];
    w.put<uint8_t>(static_cast<uint8_t>(p.dtype()));
    put_shape(w, p.shape());
    const int slot = coded_slot(ct.ctx, j);
    if (slot < 0) {
      w.put_bytes(p.bytes());
      continue;
    }
    // Coded part: u32 byte length + the delta-coded payload. Use the
    // cache when apply_wire_codec left one; re-encode otherwise.
    Tensor enc;
    const Tensor* encp = nullptr;
    if (static_cast<size_t>(slot) < ct.coded_indices.size()) {
      encp = &ct.coded_indices[static_cast<size_t>(slot)];
    } else {
      enc = rice_encode_indices(p.i32());
      encp = &enc;
    }
    w.put<uint32_t>(static_cast<uint32_t>(encp->size_bytes()));
    w.put_bytes(encp->bytes());
  }
  put_shape(w, ct.ctx.shape);
  w.put<uint32_t>(static_cast<uint32_t>(ct.ctx.scalars.size()));
  for (float s : ct.ctx.scalars) w.put<float>(s);
  w.put<uint32_t>(static_cast<uint32_t>(ct.ctx.ints.size()));
  for (int64_t i : ct.ctx.ints) w.put<int64_t>(i);
  w.put<uint64_t>(ct.ctx.wire_bits);
  w.put<uint64_t>(ct.ctx.raw_wire_bits);
  w.seal_crc32();
  return w.finish();
}

CompressedTensor deserialize(const Tensor& blob) {
  assert(blob.dtype() == DType::U8);
  const auto frame = blob.bytes();
  if (!util::frame_crc_ok(frame)) {
    throw std::runtime_error(
        "CompressedTensor deserialize: CRC32 mismatch (corrupt or truncated "
        "frame)");
  }
  // Every count, enum and shape is checked against the bytes left before
  // anything is sized from it: the CRC only proves the sender meant these
  // bytes, not that they are well formed.
  ByteReader r(frame.first(frame.size() - util::kFrameCrcBytes));
  CompressedTensor ct;
  const auto codec = static_cast<WireCodec>(r.get<uint8_t>());
  if (codec != WireCodec::None && codec != WireCodec::Rice) {
    malformed("unknown wire codec");
  }
  ct.ctx.wire_codec = codec;
  ct.ctx.index_parts.resize(r.get_count(sizeof(int32_t)));
  for (auto& pi : ct.ctx.index_parts) pi = r.get<int32_t>();
  // A part is at least its dtype byte and its shape rank.
  const auto n_parts = r.get_count(sizeof(uint8_t) + sizeof(uint32_t));
  ct.parts.reserve(n_parts);
  if (ct.ctx.wire_codec != WireCodec::None) {
    ct.coded_indices.resize(ct.ctx.index_parts.size());
  }
  for (uint32_t j = 0; j < n_parts; ++j) {
    const DType dtype = get_dtype(r);
    const int slot = coded_slot(ct.ctx, j);
    if (slot < 0) {
      const auto elem = static_cast<int64_t>(dtype_size(dtype));
      Tensor t(dtype,
               get_shape(r, static_cast<int64_t>(r.remaining()) / elem));
      r.get_bytes(t.bytes());
      ct.parts.push_back(std::move(t));
      continue;
    }
    if (dtype != DType::I32) malformed("coded part is not i32");
    // The rice coder spends at least one bit per index.
    Shape shape = get_shape(r, static_cast<int64_t>(r.remaining()) * 8);
    const auto coded_len = r.get_count(1);
    if (shape.numel() > static_cast<int64_t>(coded_len) * 8) {
      malformed("coded part holds fewer bits than indices");
    }
    Tensor enc(DType::U8, Shape{{static_cast<int64_t>(coded_len)}});
    r.get_bytes(enc.bytes());
    Tensor t(dtype, std::move(shape));
    const std::vector<int32_t> idx = rice_decode_indices(enc, t.numel());
    std::copy(idx.begin(), idx.end(), t.i32().begin());
    ct.coded_indices[static_cast<size_t>(slot)] = std::move(enc);
    ct.parts.push_back(std::move(t));
  }
  // The original tensor's shape is not stored here, only bounded so that
  // its element count (times any dtype size) cannot overflow.
  ct.ctx.shape = get_shape(r, std::numeric_limits<int64_t>::max() / 8);
  ct.ctx.scalars.resize(r.get_count(sizeof(float)));
  for (auto& s : ct.ctx.scalars) s = r.get<float>();
  ct.ctx.ints.resize(r.get_count(sizeof(int64_t)));
  for (auto& i : ct.ctx.ints) i = r.get<int64_t>();
  ct.ctx.wire_bits = r.get<uint64_t>();
  ct.ctx.raw_wire_bits = r.get<uint64_t>();
  return ct;
}

}  // namespace grace::core
