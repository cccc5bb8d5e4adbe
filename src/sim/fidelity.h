// Compression-fidelity observability (the second layer on top of
// sim/trace): a CompressionFidelityProbe attaches to every GraceWorker via
// TrainConfig::fidelity and, on every exchange, records what compression
// did to each gradient tensor — achieved wire ratio, relative L2
// reconstruction error, cosine similarity, sign-agreement rate and the
// error-feedback residual norm (the quantities behind the paper's
// Figures 6-8 quality/ratio trade-off). Like tracing, it is opt-in and
// zero-cost when off: GraceWorker performs one null test per exchange.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/probe.h"

namespace grace::sim {

// Per-tensor aggregate over every probed exchange of the run, merged
// across ranks (deterministically: ranks folded in ascending order).
struct TensorFidelitySummary {
  std::string name;
  int64_t numel = 0;
  int64_t samples = 0;             // probed exchanges summed over all ranks
  // Achieved ratio over the sampled exchanges: total dense bits / total
  // wire bits (not the mean of per-exchange ratios, which over-weights
  // cheap exchanges).
  double compression_ratio = 0.0;
  double mean_wire_bits = 0.0;
  // Achieved lossless (index-coding) ratio folded into compression_ratio:
  // total pre-coding wire bits / total coded wire bits. Exactly 1 when the
  // wire stage is off; compression_ratio / lossless_ratio recovers the
  // lossy-only ratio.
  double lossless_ratio = 1.0;
  // Means over samples.
  double l2_rel_error = 0.0;
  double cosine_similarity = 0.0;
  double sign_agreement = 0.0;
  double grad_l2 = 0.0;
  double residual_l2 = 0.0;        // 0 when error feedback is off
};

// Implements the core::ExchangeProbe hook with lock-free per-rank storage:
// each rank's worker thread appends only to its own slot, so recording
// needs no synchronization.
class CompressionFidelityProbe final : public core::ExchangeProbe {
 public:
  explicit CompressionFidelityProbe(int n_ranks);

  void on_sample(const core::FidelitySample& sample) override;

  // Per-tensor aggregates in first-exchanged order (identical on every
  // rank because all ranks exchange tensors in the same order).
  std::vector<TensorFidelitySummary> summaries() const;

  // Monotonic totals for one (rank, tensor): both fields only grow as
  // samples arrive. The adaptive controller (src/control) differences
  // consecutive reads to form per-window signals — which is what makes a
  // resumed run's windows identical to the original run's tail. All zeros
  // when the pair was never sampled.
  struct Totals {
    int64_t samples = 0;
    double cosine_sum = 0.0;
  };
  Totals totals(int rank, const std::string& name) const;

  // Thread contract: rank r's slot is written only by rank r's worker
  // thread, so totals() for rank r may be called from that same thread
  // mid-run (the controller does); reading OTHER ranks' slots, and
  // summaries(), is only safe after the workers have joined.

  int n_ranks() const { return static_cast<int>(ranks_.size()); }

 private:
  struct Accum {
    std::string name;
    int64_t numel = 0;
    int64_t samples = 0;
    uint64_t dense_bits = 0;
    uint64_t wire_bits = 0;
    uint64_t raw_wire_bits = 0;
    double l2_rel_error = 0.0;
    double cosine_similarity = 0.0;
    double sign_agreement = 0.0;
    double grad_l2 = 0.0;
    double residual_l2 = 0.0;
  };
  // Cache-line separation between rank slots: ranks record concurrently.
  struct alignas(64) RankSlot {
    std::vector<Accum> tensors;  // first-seen order; linear lookup (few)
  };

  std::vector<RankSlot> ranks_;
};

// JSON array of TensorFidelitySummary records (shared by run_result_json,
// bench_fidelity and the tests; no external JSON dependency).
std::string fidelity_summaries_json(
    const std::vector<TensorFidelitySummary>& summaries);

}  // namespace grace::sim
