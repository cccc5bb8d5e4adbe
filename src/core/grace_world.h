// The per-worker GRACE engine: lines 5-14 of Algorithm 1 for one gradient
// tensor. Owns the worker's compressor instance (with its per-tensor
// state), the error-feedback memory, and the rank's communication handle.
//
// Compression/decompression times are *measured* (the kernels really run);
// communication time is *simulated* from the NetworkModel using the logical
// (bit-packed) wire sizes, because the in-process transport has no real NIC.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "comm/collectives.h"
#include "comm/network_model.h"
#include "comm/topology.h"
#include "control/config.h"
#include "core/compressor.h"
#include "core/memory.h"
#include "core/probe.h"

namespace grace::core {

struct ExchangeStats {
  uint64_t wire_bytes = 0;        // logical bytes this worker transmitted
  double compress_seconds = 0.0;  // measured: Q + memory update
  double decompress_seconds = 0.0;  // measured: Q^-1 over received payloads
  double comm_seconds = 0.0;      // simulated network time

  ExchangeStats& operator+=(const ExchangeStats& o);
};

// A submitted-but-not-yet-completed exchange: the unit of work the bucketed
// exchange scheduler (sim/scheduler.h) moves through its pipeline. submit()
// runs the compression stage (lines 5-6 of Algorithm 1: phi, Q, psi) and
// captures the payload; wait() runs the communication and decompression
// stages and returns the aggregate. Handles must be waited in submission
// order, and every rank must submit the same (tensor, name) sequence.
struct ExchangeHandle {
  CompressedTensor payload;
  int tag = 0;
  bool instrumented = false;
  ExchangeStats stats;  // compress_seconds + wire_bytes, filled by submit()
  // The compressor this payload was produced with (the worker's base
  // compressor, or a controller-selected per-bucket override). wait()
  // dispatches on ITS CommMode and decompresses with it, so a handle stays
  // self-consistent even if the controller re-routes the bucket between
  // submit and wait.
  Compressor* compressor = nullptr;
};

struct GraceConfig {
  std::string compressor_spec = "none";
  // Error feedback override; unset means the compressor's default (the
  // EF-On column of Table I).
  std::optional<bool> error_feedback;
  float ef_beta = 1.0f;   // beta in Eq. 4
  float ef_gamma = 1.0f;  // gamma in Eq. 4
  // §IV-A: the framework is compatible with parameter-server communication —
  // "a parameter server provides a gradient aggregation function equivalent
  // to Allreduce". ParameterServer routes compressed uploads through the
  // serving shard (rank tag % ps_shards), which aggregates and pushes the
  // dense result back. Ring and Hierarchical share the compressor's
  // preferred collective over the two-level rack-aware collectives of
  // comm/collectives.h; Ring is the one-rank-per-rack case, the flat ring.
  comm::TopologyConfig topology;
  // Lossless wire stage for sparse-index payloads (core/compressed.h):
  // submit() runs apply_wire_codec on every compressed payload, inside the
  // timed compression region, so compress_seconds, wire_bytes and the
  // NetworkModel all see the coded wire format. None preserves the seed
  // behavior (raw 32-bit indices) exactly.
  WireCodec wire_codec = WireCodec::None;
  // Adaptive per-bucket compression controller knobs (DESIGN.md §11).
  // Off by default (control.arms empty); when on, the trainer drives
  // set_compressor_override at decision boundaries to re-route individual
  // buckets between the candidate arms. When error_feedback is unset, EF
  // turns on if the base compressor OR any arm defaults it on, so a
  // bucket switched onto an EF arm mid-run has a live ResidualMemory.
  control::ControlConfig control;
};

class GraceWorker {
 public:
  GraceWorker(const GraceConfig& cfg, comm::Comm comm,
              comm::NetworkModel net, uint64_t rng_seed);

  // Stage 1 of an exchange: error-feedback compensation, compression, and
  // the memory update, leaving a handle holding the wire payload. All
  // compressor/EF state mutation (and RNG consumption) happens here, so a
  // submit-all-then-wait-all schedule is bit-identical to interleaved
  // wait(submit(...)) calls. When `instrument` is false no clocks are
  // read, so uninstrumented callers pay nothing for the accounting layer.
  //
  // The gradient is given up: when neither error feedback nor a probe
  // reads it after Q, it goes to Compressor::compress_owned, and a
  // compressor that keeps its storage as a part (none) leaves `grad`
  // empty. Otherwise `grad` is left as it was.
  ExchangeHandle submit(Tensor&& grad, const std::string& name,
                        bool instrument = false);

  // submit() bypassing the error-feedback memory entirely: phi is skipped
  // and no residual is written. The partial-participation path uses this to
  // ship an all-zero payload while the real gradient sits in the residual
  // (sim/scheduler.h submit_bucket_zero) — a normal submit of zeros would
  // leak beta*m onto the wire and corrupt the residual.
  ExchangeHandle submit_raw(Tensor&& grad, const std::string& name,
                            bool instrument = false);

  // Stages 2-3: run the collective for a submitted payload and decompress
  // the aggregate g_k (mean across workers, or the compressor's custom
  // Agg); every rank must wait on the same exchanges in the same order.
  // Touches no compressor/EF state (decompress and Agg are const). Folds
  // the handle's accumulated stats into `stats` when set.
  Tensor wait(ExchangeHandle&& h, ExchangeStats* stats = nullptr);

  // Degraded-mode support (docs/RESILIENCE.md). absorb() folds a gradient
  // that could NOT be exchanged (a skipped round) into the error-feedback
  // residual — psi with an all-zero decompression, so the work feeds the
  // next round instead of being lost; a no-op when EF is off. rebind()
  // swaps the communication endpoint and cost model when the membership
  // view changes: compressor state and EF residuals carry over untouched.
  void absorb(const Tensor& grad, const std::string& name);
  void rebind(comm::Comm comm, const comm::NetworkModel& net);

  // Membership-epoch support (core/membership.h). reset_tags() restarts the
  // per-exchange tag sequence; every member of a new view calls it at the
  // view's boundary so a rank parked for a few epochs (whose next_tag_
  // froze) agrees with the survivors on PS shard routing when it rejoins.
  // Safe at iteration boundaries only: no exchange is in flight, and the
  // out-of-band tag spaces (check_sync, controller, bootstrap) are all
  // negative.
  void reset_tags() { next_tag_ = 1; }
  // Join-bootstrap state transfer: a copy of the EF residual held for
  // `name` (zeros shaped like `like` when none / EF off), and the inverse
  // install on the joiner.
  Tensor residual_snapshot(const std::string& name, const Tensor& like) const;
  void install_residual(const std::string& name, const Tensor& r);

  Compressor& compressor() { return *q_; }
  bool error_feedback_enabled() const { return memory_.has_value(); }

  // Controller hooks (src/control, DESIGN.md §11). Route all subsequent
  // submits of `name` through `spec` instead of the base compressor. One
  // instance per distinct spec is kept in a pool and SHARED across names —
  // safe because compressor state (momentum, thresholds) is keyed by the
  // tensor name, exactly like the base compressor serving every tensor.
  // Passing the construction spec clears the override (the bucket rejoins
  // the base instance, whose per-name state it never left).
  void set_compressor_override(const std::string& name,
                               const std::string& spec);
  // The compressor a submit of `name` would use right now.
  Compressor& compressor_for(const std::string& name);

  // Attach / detach a fidelity probe (core/probe.h, not owned). While set,
  // every exchange measures what compression did to the tensor (one extra
  // decompress when error feedback is off) and reports a FidelitySample;
  // when null (the default) the cost is a single pointer test.
  // `probe_rank` overrides the rank recorded on samples: in a smaller
  // membership view comm_.rank() is the LIVE rank, which would alias one
  // rank's samples into another's slot; the trainer passes the
  // stable physical rank instead so per-rank windows stay well-defined
  // across a rebind. Negative keeps the comm rank (the default).
  void set_probe(ExchangeProbe* probe, int probe_rank = -1) {
    probe_ = probe;
    probe_rank_ = probe_rank;
  }

 private:
  ExchangeHandle submit_impl(Tensor&& grad, const std::string& name,
                             bool instrument, bool use_memory);
  // The two dataflows wait() runs: the collective exchange (Ring and
  // Hierarchical) and the PS push/pull. `stats` may be null: the exchange
  // still runs, only accounting is skipped. `q` is the compressor the
  // payload was produced with (carried on the handle), not necessarily the
  // base compressor. The collective exchange consumes the handle's payload:
  // its Allreduce branch sums the parts in place and decompresses them with
  // decompress_owned.
  Tensor exchange_collective(Compressor& q, CompressedTensor&& compressed,
                             int tag, ExchangeStats* stats);
  Tensor exchange_parameter_server(Compressor& q,
                                   const CompressedTensor& compressed, int tag,
                                   ExchangeStats* stats);

  // Measure fidelity of `reconstruction` (= Q^-1(Q(compensated))) against
  // the compensated gradient and hand the sample to probe_.
  void probe_fidelity(const std::string& name, const Tensor& compensated,
                      const CompressedTensor& compressed,
                      const Tensor& reconstruction);

  comm::TopologyConfig topology_;  // rebind-clamped
  comm::TopologyModel topo_;
  WireCodec wire_codec_;
  std::string base_spec_;
  std::unique_ptr<Compressor> q_;
  // Controller arm pool: one shared instance per distinct override spec,
  // plus the name -> instance routing table. Pool entries are stable for
  // the worker's lifetime (overrides may be cleared but instances persist,
  // keeping their per-name state for a later switch back).
  std::map<std::string, std::unique_ptr<Compressor>> arm_pool_;
  std::unordered_map<std::string, Compressor*> overrides_;
  std::optional<ResidualMemory> memory_;  // set iff error feedback is on
  comm::Comm comm_;
  Rng rng_;
  ExchangeProbe* probe_ = nullptr;
  int probe_rank_ = -1;
  int next_tag_ = 1;
};

}  // namespace grace::core
