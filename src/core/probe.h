// Compression-fidelity probe hook (the observability counterpart of
// ExchangeStats): an opt-in observer that GraceWorker::submit notifies
// with per-tensor fidelity measurements — what compression *did* to the
// gradient, not just how long it took. Ratio alone is a misleading utility
// signal (arXiv:2407.01378); per-tensor reconstruction fidelity is what
// predicts end-to-end usefulness (arXiv:2103.00543), so the sample carries
// both.
//
// The worker computes the sample (it owns the compressor, the compensated
// gradient and the reconstruction); the observer only stores it. When no
// probe is attached the cost is a single null test per exchange.
#pragma once

#include <cstdint>
#include <string>

namespace grace::core {

// One probed exchange of one gradient tensor on one rank. All quantities
// compare x = phi(m, g) (the compensated gradient actually fed to Q) with
// y = Q^-1(Q(x)) (the local reconstruction every peer will decompress).
struct FidelitySample {
  int rank = 0;
  std::string tensor;            // gradient tensor name
  int64_t numel = 0;
  uint64_t dense_bits = 0;       // numel * 32 (float32 baseline)
  uint64_t wire_bits = 0;        // ideal-packing wire size of Q(x), after
                                 // the lossless wire stage when one is on
  uint64_t raw_wire_bits = 0;    // wire size before lossless index coding
                                 // (== wire_bits when the stage is off)
  double compression_ratio = 1.0;  // dense_bits / wire_bits
  double lossless_ratio = 1.0;     // raw_wire_bits / wire_bits (>= 1)
  double l2_rel_error = 0.0;       // ||x - y||_2 / ||x||_2 (0 when x == 0)
  double cosine_similarity = 1.0;  // <x,y> / (||x|| ||y||) (1 when degenerate)
  double sign_agreement = 1.0;     // fraction of i with sign(x_i) == sign(y_i)
  double grad_l2 = 0.0;            // ||x||_2
  double residual_l2 = 0.0;        // ||x - y||_2 when EF is on, else 0
};

class ExchangeProbe {
 public:
  virtual ~ExchangeProbe() = default;
  // Called once per probed exchange, outside the timed codec region, from
  // the rank's own worker thread (implementations must be rank-concurrent).
  virtual void on_sample(const FidelitySample& sample) = 0;
};

}  // namespace grace::core
