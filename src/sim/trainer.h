// The distributed data-parallel trainer: Algorithm 1 executed by n worker
// threads over the in-process collectives. Each worker owns a model
// replica, a GraceWorker (compressor + memory + comm rank), an optimizer,
// and a disjoint slice of every global mini-batch.
#pragma once

#include <functional>
#include <memory>

#include "comm/fleet.h"
#include "comm/network_model.h"
#include "core/grace_world.h"
#include "faults/fault_plan.h"
#include "models/model.h"
#include "optim/optimizer.h"
#include "sim/metrics.h"
#include "sim/time_model.h"

namespace grace::sim {

class Trace;
class CompressionFidelityProbe;
class MetricRegistry;
class CriticalPathCollector;

using ReplicaFactory =
    std::function<std::unique_ptr<models::DistributedModel>(uint64_t init_seed)>;

struct TrainConfig {
  int n_workers = 4;
  int batch_per_worker = 16;
  int epochs = 5;
  optim::OptimizerConfig optimizer;
  core::GraceConfig grace;
  // Link model. train() prices the n_workers ranks it runs, as
  // simulate_scale does: net.n_workers is overridden with n_workers.
  comm::NetworkModel net;
  // Per-rank link/compute heterogeneity (comm/fleet.h). The default (empty)
  // profile is a uniform fleet and leaves every number bit-identical to the
  // pre-fleet trainer. Non-uniform fleets price collectives at the
  // bottleneck member link and scale each rank's simulated compute and
  // measured codec seconds by its compute_scale; wire volumes and the
  // training math itself are never affected.
  comm::FleetProfile fleet;
  TimeModel time;
  uint64_t seed = 42;
  // Verify all replicas hold bit-identical parameters at every epoch end
  // (they must: every worker applies the same update to the same state).
  bool check_sync = true;
  int eval_every = 1;  // epochs between test-set evaluations
  // Step learning-rate schedule: lr *= lr_decay_factor every
  // lr_decay_every epochs (0 disables).
  int lr_decay_every = 0;
  double lr_decay_factor = 0.1;
  // Gradient-fusion bucket cap in bytes (Horovod-style threshold,
  // sim/scheduler.h). Gradient tensors are packed, in gradient-ready
  // order, into buckets of at most this many bytes (4 per element), and
  // each bucket runs one compress/communicate/decompress round —
  // amortizing per-message and per-tensor dispatch overhead while keeping
  // early buckets small enough to overlap (TimeModel::overlap).
  //   0        = one bucket per tensor (the legacy per-tensor path)
  //   SIZE_MAX = everything in one "fused" bucket (legacy full fusion)
  // A tensor larger than the cap forms its own bucket. Multi-tensor
  // buckets change semantics for shape-aware compressors exactly as full
  // fusion did, now at bucket granularity: PowerSGD sees a flat vector,
  // Top-k selects across the bucket's layers.
  size_t fusion_bytes = 0;
  // Optional run tracer (sim/trace.h, not owned). When set, train() fills
  // it after the join from its per-rank log with per-phase / per-bucket
  // TraceEvents, and fills RunResult::tensor_trace from rank 0's log. When
  // null (the default) no event is recorded.
  Trace* trace = nullptr;
  // Optional compression-fidelity probe (sim/fidelity.h, not owned). When
  // set, every probe->every_k()-th iteration measures per-tensor
  // reconstruction fidelity inside GraceWorker::exchange and the trainer
  // fills RunResult::fidelity. When null the cost is one branch per
  // iteration and one per exchange.
  CompressionFidelityProbe* fidelity = nullptr;
  // Optional exchange-level metrics registry (sim/metric_registry.h, not
  // owned). When set, train() fills it after the join from its per-rank
  // log — every exchange's compress/decompress latency and message-size
  // distributions plus counters — and snapshots it into
  // RunResult::metric_counters / metric_histograms. The adaptive
  // controller's control.* counters are the one part recorded mid-run.
  MetricRegistry* metrics = nullptr;
  // Optional critical-path collector (sim/critical_path.h, not owned).
  // When set, train() fills it after the join from its per-rank log and
  // copies its roll-up into RunResult::critical_path: per-iteration
  // resource attribution (honesty contract: attributed seconds sum
  // bitwise-exactly to the iteration's charge) and deterministic what-if
  // re-pricings. A collector serves one run: train() throws
  // std::invalid_argument when it already holds iterations.
  CriticalPathCollector* critical_path = nullptr;
  // Optional deterministic fault plan (src/faults, docs/RESILIENCE.md; not
  // owned). When set, the trainer installs a FaultInjector on the World
  // (message drops / corruption with simulated retries), injects straggler
  // stalls and skipped rounds, runs the plan's churn and crash as
  // membership views (core/membership.h), and reports FaultCounters in
  // RunResult::faults. When null — the default — runs are bit-identical to
  // a build without the subsystem; the fault path costs one branch per
  // message.
  const faults::FaultPlan* faults = nullptr;
  // What the plan's crash does. Continue: the crash is a leave of
  // crash_rank at (crash_epoch, crash_iter) — the survivors rebind like
  // any membership change (compressor + error-feedback state carry over),
  // finish the crash epoch on its frozen data partition, and the next
  // epoch re-partitions over them; it counts as crashed_ranks, not leaves.
  // Halt: every rank stops at the crash boundary. Ignored without a crash.
  faults::CrashPolicy crash_policy = faults::CrashPolicy::Continue;
  // Epoch numbering offset: epoch e of this run uses the shuffle order,
  // lr-decay boundaries, fault schedule and membership view of epoch
  // start_epoch + e, so a run resumed from saved weights replays the tail
  // of a longer run exactly (the crash and elastic-membership hand-off
  // equivalence tests rely on this). Note start_epoch is an ABSOLUTE
  // schedule offset while `epochs` is the count to run from there, so
  // start_epoch >= epochs is a legitimate resume of a long schedule's
  // tail, not an error. Callers are responsible for seeding the optimizer
  // lr to its resumed value.
  int start_epoch = 0;

  // Structural validation, run by train() before any thread starts; throws
  // std::invalid_argument with a pointed message on: non-positive
  // n_workers / batch_per_worker / epochs, start_epoch < 0, a FleetProfile
  // smaller than the world, invalid net parameters, topology parameters
  // that cannot drive n_workers ranks (net.n_workers plays no part), a
  // churn plan combined with the adaptive controller (parked ranks would
  // miss its signal allreduces), or a controller resume_state combined
  // with churn.
  // Churn and crash events themselves are checked by
  // core::MembershipSchedule (leave of an absent rank, join of a present
  // one, rank 0 churning, a rank outside the fleet).
  void validate() const;
};

// Runs the full training loop; every worker sees the same `factory` and
// builds its replica with the same init seed (identical start state).
RunResult train(const ReplicaFactory& factory, const TrainConfig& cfg);

}  // namespace grace::sim
