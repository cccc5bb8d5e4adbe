#include "core/compressed.h"

#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/index_coding.h"
#include "util/crc32.h"

namespace grace::core {
namespace {

// Sizes a frame: the same field sequence as ByteWriter, counted only.
struct ByteCounter {
  size_t bytes = 0;
  template <typename T>
  void put(T) {
    bytes += sizeof(T);
  }
  void put_bytes(std::span<const std::byte> b) { bytes += b.size(); }
};

// Writes a frame of known size into storage reserved up front, so every
// byte is written once, with no grow, no zero fill and no final copy: the
// buffer becomes the blob's storage.
class ByteWriter {
 public:
  explicit ByteWriter(size_t frame_bytes) { buf_.reserve(frame_bytes); }
  template <typename T>
  void put(T v) {
    put_bytes(std::as_bytes(std::span<const T, 1>(&v, 1)));
  }
  // A grow of Bytes writes nothing, so each byte is written once, here.
  void put_bytes(std::span<const std::byte> bytes) {
    const size_t at = buf_.size();
    buf_.resize(at + bytes.size());
    if (!bytes.empty()) std::memcpy(buf_.data() + at, bytes.data(), bytes.size());
  }
  // Appends the little-endian CRC32 of everything written so far, closing
  // the frame per the util/crc32.h convention. Must be the last write.
  void seal_crc32() {
    const uint32_t crc = util::frame_crc(buf_);
    for (size_t i = 0; i < util::kFrameCrcBytes; ++i) {
      buf_.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFFu));
    }
  }
  Tensor finish() && {
    const auto n = static_cast<int64_t>(buf_.size());
    return Tensor(DType::U8, Shape{{n}}, std::move(buf_));
  }

 private:
  Bytes buf_;
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
  // The next n bytes, as a view into the blob.
  std::span<const std::byte> take(size_t n) {
    check(n);
    const auto out = data_.subspan(at_, n);
    at_ += n;
    return out;
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

template <typename W>
void put_shape(W& w, const Shape& s) {
  w.put(static_cast<uint32_t>(s.rank()));
  for (int64_t d : s.dims()) w.put(d);
}

// The frame's fields in the order compressed.h documents, through a
// ByteCounter or a ByteWriter. coded[j] is part j's delta-coded payload,
// or null when the part travels raw.
template <typename W>
void put_fields(W& w, const CompressedTensor& ct,
                const std::vector<const Tensor*>& coded) {
  // Wire-stage header first: deserialize must know which parts are coded
  // before it reads them.
  w.put(static_cast<uint8_t>(ct.ctx.wire_codec));
  w.put(static_cast<uint32_t>(ct.ctx.index_parts.size()));
  for (int32_t pi : ct.ctx.index_parts) w.put(pi);
  w.put(static_cast<uint32_t>(ct.parts.size()));
  for (size_t j = 0; j < ct.parts.size(); ++j) {
    const Tensor& p = ct.parts[j];
    w.put(static_cast<uint8_t>(p.dtype()));
    put_shape(w, p.shape());
    if (coded[j] == nullptr) {
      w.put_bytes(p.bytes());
    } else {
      w.put(static_cast<uint32_t>(coded[j]->size_bytes()));
      w.put_bytes(coded[j]->bytes());
    }
  }
  put_shape(w, ct.ctx.shape);
  w.put(static_cast<uint32_t>(ct.ctx.scalars.size()));
  for (float s : ct.ctx.scalars) w.put(s);
  w.put(static_cast<uint32_t>(ct.ctx.ints.size()));
  for (int64_t i : ct.ctx.ints) w.put(i);
  w.put(ct.ctx.wire_bits);
  w.put(ct.ctx.raw_wire_bits);
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
  // Coded parts use the cache apply_wire_codec left, or are re-encoded.
  std::vector<const Tensor*> coded(ct.parts.size(), nullptr);
  std::vector<Tensor> encoded;
  if (ct.ctx.wire_codec != WireCodec::None) encoded.reserve(ct.parts.size());
  for (uint32_t j = 0; j < ct.parts.size(); ++j) {
    const int slot = coded_slot(ct.ctx, j);
    if (slot < 0) continue;
    if (static_cast<size_t>(slot) < ct.coded_indices.size()) {
      coded[j] = &ct.coded_indices[static_cast<size_t>(slot)];
    } else {
      coded[j] = &encoded.emplace_back(rice_encode_indices(ct.parts[j].i32()));
    }
  }
  ByteCounter size;
  put_fields(size, ct, coded);
  ByteWriter w(size.bytes + util::kFrameCrcBytes);
  put_fields(w, ct, coded);
  w.seal_crc32();
  return std::move(w).finish();
}

CompressedTensor deserialize(const Tensor& blob) {
  if (blob.dtype() != DType::U8) malformed("blob is not U8");
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
      Shape shape = get_shape(r, static_cast<int64_t>(r.remaining()) / elem);
      const auto bytes = r.take(static_cast<size_t>(shape.numel() * elem));
      ct.parts.push_back(Tensor::from_bytes(dtype, std::move(shape), bytes));
      continue;
    }
    if (dtype != DType::I32) malformed("coded part is not i32");
    // The rice coder spends at least one bit per index.
    Shape shape = get_shape(r, static_cast<int64_t>(r.remaining()) * 8);
    const auto coded_len = r.get_count(1);
    if (shape.numel() > static_cast<int64_t>(coded_len) * 8) {
      malformed("coded part holds fewer bits than indices");
    }
    Tensor enc = Tensor::from_bytes(
        DType::U8, Shape{{static_cast<int64_t>(coded_len)}}, r.take(coded_len));
    const std::vector<int32_t> idx = rice_decode_indices(enc, shape.numel());
    ct.coded_indices[static_cast<size_t>(slot)] = std::move(enc);
    ct.parts.push_back(Tensor::from_bytes(dtype, std::move(shape),
                                         std::as_bytes(std::span(idx))));
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
