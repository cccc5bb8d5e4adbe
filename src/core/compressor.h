// The GRACE compressor interface (§IV-B): compress / decompress plus the
// communication strategy and taxonomy metadata (Table I). Compressors may
// hold per-tensor state keyed by tensor name (e.g. SIGNUM's momentum, DGC's
// accumulators, PowerSGD's warm-started factor); one Compressor instance
// therefore belongs to exactly one worker.
#pragma once

#include <memory>
#include <span>
#include <string>

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

  // Q^-1: reconstruct a tensor of the original shape/dtype.
  virtual Tensor decompress(const CompressedTensor& compressed) const = 0;

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

std::string compressor_class_name(CompressorClass c);

}  // namespace grace::core
