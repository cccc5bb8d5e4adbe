// The GRACE compressor interface (§IV-B): compress / decompress plus the
// communication strategy and taxonomy metadata (Table I). Compressors may
// hold per-tensor state keyed by tensor name (e.g. SIGNUM's momentum, DGC's
// accumulators, PowerSGD's warm-started factor); one Compressor instance
// therefore belongs to exactly one worker.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/compressed.h"
#include "tensor/rng.h"

namespace grace::core {

enum class CommMode { Allreduce, Allgather };
enum class QNature { Deterministic, Random };
enum class CompressorClass { None, Quantization, Sparsification, Hybrid, LowRank };

// Static taxonomy entry (one row of Table I).
struct CompressorInfo {
  std::string name;
  CompressorClass klass = CompressorClass::None;
  QNature nature = QNature::Deterministic;
  bool default_error_feedback = false;  // EF-On column
  std::string compressed_size;          // the ||g~||_0 column, human readable
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Q: gradient tensor -> compressed payload. `name` keys per-tensor state;
  // `rng` supplies randomness for Random-natured operators.
  virtual CompressedTensor compress(const Tensor& grad, const std::string& name,
                                    Rng& rng) = 0;

  // Q of a gradient the caller gives up, bitwise equal to compress. An
  // override may keep the gradient's own storage as a part instead of a
  // copy (none), leaving `grad` empty; the default calls compress and
  // leaves `grad` as it was.
  virtual CompressedTensor compress_owned(Tensor&& grad,
                                          const std::string& name, Rng& rng) {
    return compress(grad, name, rng);
  }

  // Q^-1: reconstruct a tensor of the original shape/dtype.
  virtual Tensor decompress(const CompressedTensor& compressed) const = 0;

  // Q^-1 of a payload the caller gives up, bitwise equal to decompress. An
  // override may hand back a part's own storage instead of a copy (none);
  // the default calls decompress.
  virtual Tensor decompress_owned(CompressedTensor&& compressed) const {
    return decompress(compressed);
  }

  // Which collective the compressed payload rides (§IV-B communication
  // strategies). Allreduce requires that summing payload parts element-wise
  // commutes with decompression (true for the identity baseline).
  virtual CommMode comm_mode() const { return CommMode::Allgather; }

  virtual CompressorInfo info() const = 0;

  // One step of Agg in Algorithm 1, streamed: acc += Q^-1(compressed),
  // bitwise equal to decompress then ops::add. The gather paths decompress
  // the first peer's payload and fold every later one through this, so an
  // override can decode straight into the accumulator with no dense
  // temporary. Throws std::runtime_error unless ctx.shape.numel() ==
  // acc.size().
  virtual void decompress_add(const CompressedTensor& compressed,
                              std::span<float> acc) const;
};

// The size rule of decompress_add, for overrides to run first.
void check_fold_size(const CompressedTensor& compressed,
                     std::span<const float> acc);

// Decoder checks on a payload off the wire: a frame whose CRC checks out
// may still lie about any part, count or dimension, and a decoder that
// trusts one reads, writes or allocates out of bounds. Each throws
// std::runtime_error naming `who` unless its rule holds.
//
// Part `i` exists, is of dtype `dtype` and holds exactly `numel` elements.
const Tensor& wire_part(const CompressedTensor& compressed, size_t i,
                        DType dtype, int64_t numel, const char* who);
// ctx.ints[i] exists and lies in [lo, hi].
int64_t wire_int(const CompressedTensor& compressed, size_t i, int64_t lo,
                 int64_t hi, const char* who);
// ctx.ints[0] and [1] are the rows and columns of ctx.shape's matrix view
// (Shape::as_matrix), which the low-rank methods factor. Compared without
// forming the product of the trailing dims: behind a leading 0 a lying
// shape's trailing dims can overflow it, and then any column count is
// harmless, as no element is read or written.
std::pair<int64_t, int64_t> wire_matrix(const CompressedTensor& compressed,
                                        const char* who);

std::string compressor_class_name(CompressorClass c);

}  // namespace grace::core
