#include "sim/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "comm/collectives.h"
#include "control/controller.h"
#include "core/membership.h"
#include "core/registry.h"
#include "faults/injector.h"
#include "runtime/thread_pool.h"
#include "sim/critical_path.h"
#include "sim/fidelity.h"
#include "sim/metric_registry.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "tensor/ops.h"
#include "util/crc32.h"

namespace grace::sim {
namespace {

// One rank's record of one iteration. Inactive rows are placeholders pushed
// while the rank was parked out of the view in force (a churn leaver, or
// the crash casualty from its crash on); the fold skips them.
struct IterationRow {
  float loss = 0.0f;
  double retry_stall_s = 0.0;  // link-fault retry charges this rank drained
  int epoch = 0;
  int64_t iter = 0;  // within the epoch
  bool active = false;
  // False on a skipped round, which logs no per-bucket stats.
  bool exchanged = false;
  bool sat_out = false;  // partial participation: shipped a zero payload
};

// What one worker thread logs: raw facts only. The fold after the join
// prices, records and charges every iteration from these logs.
struct WorkerLog {
  std::vector<IterationRow> rows;  // index-aligned across ranks
  // The stats wait() filled, one per bucket in plan order, for every
  // exchanged row in row order.
  std::vector<core::ExchangeStats> buckets;
  bool in_sync = true;             // every check_sync this rank ran passed
  bool error_feedback = false;     // whether this rank's worker runs EF
  // This rank's controller as the run left it (when one runs).
  std::unique_ptr<control::Controller> controller;
  // Rank 0 only: the evaluations, their epochs, and the final weights.
  std::vector<models::EvalResult> evals;
  std::vector<int> eval_epochs;
  std::vector<float> final_params;
};

// One membership view's transport: its world, its injector (under a plan)
// and the bottleneck link over its members.
struct ViewTransport {
  std::unique_ptr<comm::World> world;
  std::unique_ptr<faults::FaultInjector> injector;
  comm::NetworkModel net;
};

// Everything train() fixes on the caller's thread before any worker
// starts; read-only afterwards, bar the shared worlds, injectors and probe.
struct Setup {
  // `model` is rank 0's replica, read to size the run.
  Setup(models::DistributedModel& model, const TrainConfig& cfg);
  Setup(Setup&&) = delete;  // the workers hold its address

  const TrainConfig& cfg;
  const core::MembershipSchedule membership;
  std::vector<ViewTransport> transport;  // index-aligned with the views
  RunResult head;  // the model and run facts every result starts from
  std::vector<BucketSpec> bucket_plan;
  std::vector<int64_t> slot_numels;  // parameter sizes, in module order
  int64_t train_n = 0;
  bool crash_in_run = false;
  IterationClock clock;
  std::unique_ptr<CompressionFidelityProbe> ctl_probe;
  CompressionFidelityProbe* fidelity = nullptr;
};

// A replica's parameters, flattened in module order (join-bootstrap frames
// and the final-weights snapshot).
std::vector<float> flat_parameters(models::DistributedModel& model) {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(model.module().num_parameters()));
  for (auto& p : model.module().parameters()) {
    auto v = p.value->data.f32();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

// The epoch's global sample order; identical on every worker because the
// shuffle seed depends only on (run seed, epoch).
std::vector<int64_t> epoch_order(int64_t n, uint64_t seed, int epoch) {
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(epoch));
  rng.shuffle(std::span<int64_t>(order));
  return order;
}

// Tag space for the controller's signal allreduces: exchange tags are
// positive and check_sync uses -epoch-1, so boundary i allreduces at
// kControlTagBase - i without colliding with either.
constexpr int kControlTagBase = -1000000;

// Tag space for join-bootstrap frames (core/membership.h): one per
// membership boundary, keyed by the absolute epoch, far below the
// controller's band (a controller decides after every iteration, so a run
// would need a million iterations to reach it).
constexpr int kBootstrapTagBase = -2000000;

}  // namespace

void TrainConfig::validate() const {
  if (n_workers < 1) {
    throw std::invalid_argument("TrainConfig: n_workers must be >= 1");
  }
  if (batch_per_worker < 1) {
    throw std::invalid_argument("TrainConfig: batch_per_worker must be >= 1");
  }
  if (epochs < 1) {
    throw std::invalid_argument("TrainConfig: epochs must be >= 1");
  }
  if (eval_every < 1) {
    // Rank 0 evaluates every eval_every-th epoch (epoch % eval_every).
    throw std::invalid_argument("TrainConfig: eval_every must be >= 1");
  }
  if (start_epoch < 0) {
    throw std::invalid_argument(
        "TrainConfig: start_epoch must be >= 0 (it is an absolute epoch "
        "offset into the run's schedule)");
  }
  fleet.validate(n_workers);
  net.validate();
  // train() prices the n_workers ranks it runs, whatever net.n_workers says.
  grace.topology.validate(n_workers);
  if (faults != nullptr) {
    // Consistency of the membership events themselves (leave of an absent
    // rank, join of a present one, rank 0 churning or crashing, ranks
    // outside the fleet) — fail here, on the caller's thread, not inside a
    // worker.
    core::MembershipSchedule(n_workers, faults->spec());
  }
  if (!grace.control.resume_state.empty() && start_epoch == 0) {
    // Resume state with start_epoch 0 is a schedule mismatch: the
    // controller would replay decisions against the wrong boundaries.
    throw std::invalid_argument(
        "TrainConfig: control.resume_state requires start_epoch > 0 — a "
        "fresh run cannot resume a decision log");
  }
}

namespace {

Setup::Setup(models::DistributedModel& model, const TrainConfig& cfg)
    : cfg(cfg),
      membership(cfg.n_workers, cfg.faults != nullptr ? cfg.faults->spec()
                                                      : faults::FaultSpec{}) {
  const int n = cfg.n_workers;
  head.model = model.name();
  head.quality_metric = model.quality_metric();
  head.model_parameters = model.module().num_parameters();
  head.gradient_tensors = static_cast<int64_t>(model.module().parameters().size());
  const double fwd_flops_per_sample = model.flops_per_sample();
  train_n = model.train_size();
  // The bucket plan is a pure function of (tensor sizes, fusion_bytes),
  // and every replica has rank 0's sizes, so this plan matches every
  // worker's scheduler exactly.
  std::vector<std::string> pnames;
  for (auto& p : model.module().parameters()) {
    pnames.push_back(p.name);
    slot_numels.push_back(p.value->data.numel());
  }
  bucket_plan = plan_buckets(slot_numels, pnames, cfg.fusion_bytes);
  head.buckets_per_iter = static_cast<int64_t>(bucket_plan.size());
  head.compressor = cfg.grace.compressor_spec;
  head.topology = cfg.grace.topology.to_string();

  // The crash (docs/RESILIENCE.md) counts for this run when it falls after
  // the run's first iteration — one exactly there happened before a
  // resumed run started, like a churn event at start_epoch.
  const faults::FaultPlan* const plan = cfg.faults;
  if (plan != nullptr) {
    const faults::FaultSpec& spec = plan->spec();
    crash_in_run = spec.has_crash() &&
                   spec.crash_epoch < cfg.start_epoch + cfg.epochs &&
                   (spec.crash_epoch > cfg.start_epoch ||
                    (spec.crash_epoch == cfg.start_epoch && spec.crash_iter > 0));
    const int64_t global_batch = static_cast<int64_t>(n) * cfg.batch_per_worker;
    if (crash_in_run &&
        spec.crash_iter >= std::max<int64_t>(1, train_n / global_batch)) {
      throw std::invalid_argument(
          "TrainConfig: crash_iter is beyond the crash epoch's iteration "
          "count");
    }
  }

  // Every view's transport (core/membership.h), built here, on this thread;
  // workers only ever rebind onto it when their view changes. The run
  // prices the fleet it runs, as simulate_scale does: n ranks, whatever
  // cfg.net.n_workers says, and each view's collectives at the pace of its
  // slowest member link (with the default uniform fleet that IS `net`,
  // bit-identically). Under a plan each view draws its link faults from an
  // injector of its own: live ranks renumber, and a view's per-link
  // sequence numbers start with the view, so a resumed run replays them.
  comm::NetworkModel net = cfg.net;
  net.n_workers = n;
  for (const core::MembershipView& view : membership.views()) {
    ViewTransport& t = transport.emplace_back();
    t.net = cfg.fleet.bottleneck(net, std::span<const int>(view.ranks));
    t.net.n_workers = view.size();
    t.world = std::make_unique<comm::World>(view.size());
    if (plan != nullptr) {
      t.injector =
          std::make_unique<faults::FaultInjector>(plan, t.net, view.size());
      t.world->install_faults(t.injector.get());
    }
  }

  // Instantiate the base spec here, like the arms below: a bad spec must
  // throw on this thread, not inside a worker.
  core::make_compressor(cfg.grace.compressor_spec);
  bool compressing =
      core::parse_spec(cfg.grace.compressor_spec).name != "none";

  // Adaptive controller setup (src/control, DESIGN.md §11). Instantiate
  // every arm on this thread — a bad arm spec must not throw inside a
  // worker — and auto-attach an internal fidelity probe when the caller
  // did not supply one (the controller's signals come from the probe).
  const control::ControlConfig& ctl_cfg = cfg.grace.control;
  if (ctl_cfg.enabled()) {
    for (const std::string& arm : ctl_cfg.arms) {
      core::make_compressor(arm);  // fail fast on an unknown arm spec
      // Any arm may serve any bucket at some point: the per-tensor
      // dispatch overhead applies whenever any candidate compresses.
      compressing = compressing || core::parse_spec(arm).name != "none";
    }
    if (cfg.fidelity == nullptr) {
      ctl_probe = std::make_unique<CompressionFidelityProbe>(n);
    }
  }

  // The simulated clock every rank is priced with (before its fleet
  // stretch).
  clock = iteration_clock(cfg.time, fwd_flops_per_sample,
                          cfg.batch_per_worker, compressing);
  head.compute_s = clock.compute_s;
  head.phases.optimizer_s = TimeModel::optimizer_seconds(head.model_parameters);

  fidelity = cfg.fidelity != nullptr ? cfg.fidelity : ctl_probe.get();
  // Every observer is indexed by physical rank: one sized for another world
  // would throw on a worker thread (std::terminate) or after the whole run.
  auto check_size = [n](const auto* observer, const char* what) {
    if (observer != nullptr && observer->n_ranks() != n) {
      throw std::invalid_argument(std::string("TrainConfig: ") + what +
                                  " sized for a different world");
    }
  };
  check_size(cfg.trace, "trace");
  check_size(cfg.fidelity, "fidelity probe");
  check_size(cfg.metrics, "metric registry");
  check_size(cfg.critical_path, "critical_path collector");
  if (cfg.critical_path != nullptr && cfg.critical_path->iterations() > 0) {
    throw std::invalid_argument(
        "TrainConfig: critical_path collector already holds another run's "
        "iterations; use a fresh collector per train() call");
  }
}

// One worker thread: Algorithm 1 for physical rank `rank` on its own
// replica `model` over the membership schedule — it computes, exchanges and
// steps while a member of the view in force, parks otherwise, and logs raw
// facts only.
void run_worker(const Setup& setup, int rank, models::DistributedModel& model,
                WorkerLog& log) {
  const TrainConfig& cfg = setup.cfg;
  // This rank's share of the shared pool (the lane rule in
  // runtime/thread_pool.h): the rank threads already fill the cores.
  const runtime::LaneLimit lanes(
      std::max(1, runtime::num_threads() / cfg.n_workers));
  const core::MembershipSchedule& membership = setup.membership;
  const std::vector<core::MembershipView>& views = membership.views();
  const faults::FaultPlan* const plan = cfg.faults;
  CompressionFidelityProbe* const fidelity = setup.fidelity;
  // Every rank starts in view 0 — the full fleet — and moves only through
  // transition(), when the view in force changes.
  int seg = 0;
  bool member = true;
  int live_rank = rank;
  comm::Comm comm = setup.transport[0].world->comm(rank);
  core::GraceWorker grace(cfg.grace, comm, setup.transport[0].net,
                          cfg.seed * 7919ULL + static_cast<uint64_t>(rank));
  // The probe samples every exchange. Samples are recorded under the
  // stable physical rank, not comm_.rank(): after a membership rebind the
  // live rank would alias another rank's samples into this slot, which
  // would skew the controller's per-rank windows.
  grace.set_probe(fidelity, rank);
  log.error_feedback = grace.error_feedback_enabled();
  auto optimizer = optim::make_optimizer(cfg.optimizer);
  Rng batch_rng(cfg.seed * 104729ULL + static_cast<uint64_t>(rank));

  const int64_t train_n = model.train_size();
  // Every exchange flows through the bucket scheduler; the legacy
  // per-tensor and all-fused paths are its fusion_bytes = 0 / SIZE_MAX
  // endpoints (sim/scheduler.h).
  ExchangeScheduler sched(model.module().parameters(), cfg.fusion_bytes);
  const size_t n_buckets = sched.n_buckets();
  std::vector<core::ExchangeHandle> handles;  // per-iter, reused
  handles.reserve(n_buckets);
  std::vector<int64_t> wrapped;  // slice buffer when the batch wraps
  const bool pp_on =
      plan != nullptr && plan->spec().has_partial_participation();

  // Adaptive controller (one identical instance per rank). Installing one
  // routes every bucket to its arm (before the first iteration, and on a
  // joiner adopting live rank 0's); otherwise arms switch in control_step.
  const control::ControlConfig& ctl_cfg = cfg.grace.control;
  control::Controller* ctl = nullptr;
  std::vector<std::string> bucket_names;
  std::vector<int64_t> bucket_numels;
  std::vector<CompressionFidelityProbe::Totals> ctl_base(n_buckets);
  std::vector<float> ctl_sig;
  auto install_controller = [&](std::string state) {
    control::ControlConfig c = ctl_cfg;
    c.resume_state = std::move(state);  // the constructor restores from it
    log.controller = std::make_unique<control::Controller>(c, bucket_names,
                                                           bucket_numels);
    ctl = log.controller.get();
    for (size_t b = 0; b < n_buckets; ++b) {
      grace.set_compressor_override(bucket_names[b], ctl->arm_spec(b));
    }
  };
  if (ctl_cfg.enabled()) {
    for (const BucketSpec& b : sched.buckets()) {
      bucket_names.push_back(b.name);
      bucket_numels.push_back(b.numel);
    }
    install_controller(ctl_cfg.resume_state);
    ctl_sig.resize(ctl->signal_size());
  }

  // The one membership transition, churn or crash. Members of view `to`
  // bind its pre-built transport under contiguous live renumbering;
  // compressor and error-feedback state carry over untouched. They restart
  // the exchange tag sequence, so a rank whose counter froze while parked
  // agrees with the others on PS shard routing. Non-members park. With
  // `bootstrap`, joiners then install the parameters, EF residuals,
  // optimizer state and controller of live rank 0 over the CRC-sealed
  // frame path; a resumed run's first iteration skips that, since every
  // replica starts from the same weights.
  auto transition = [&](int to, int epoch, bool bootstrap) {
    const core::MembershipView& prev = views[static_cast<size_t>(seg)];
    const core::MembershipView& view = views[static_cast<size_t>(to)];
    seg = to;
    member = view.contains(rank);
    if (!member) return;
    live_rank = view.live_rank(rank);
    const ViewTransport& t = setup.transport[static_cast<size_t>(to)];
    comm = t.world->comm(live_rank);
    grace.rebind(comm, t.net);
    grace.reset_tags();
    if (!bootstrap) return;
    const int btag = kBootstrapTagBase - epoch;
    if (!prev.contains(rank)) {
      // Joiner: install rank 0's parameters, EF residuals (in bucket
      // order), optimizer state and controller. Opening the frame verifies
      // its CRC and that it fits this replica's parameter slots. The
      // signal baseline stays: a parked rank's probe totals do not move.
      const core::BootstrapState st =
          core::open_bootstrap_frame(comm.recv(0, btag), setup.slot_numels);
      size_t at = 0;
      for (auto& p : model.module().parameters()) {
        auto vals = p.value->data.f32();
        std::copy_n(st.params.begin() + static_cast<int64_t>(at),
                    vals.size(), vals.begin());
        at += vals.size();
      }
      for (size_t b = 0; b < st.residuals.size() && b < n_buckets; ++b) {
        grace.install_residual(sched.buckets()[b].name, st.residuals[b]);
      }
      optimizer->install_state(st.optimizer);
      if (ctl != nullptr) install_controller(st.controller);
    } else if (live_rank == 0) {
      Tensor frame;  // sealed once, sent to every joiner
      for (int r : view.ranks) {
        if (prev.contains(r)) continue;
        if (frame.empty()) {
          const std::vector<float> params = flat_parameters(model);
          std::vector<Tensor> residuals;
          if (grace.error_feedback_enabled()) {
            residuals.reserve(n_buckets);
            for (size_t b = 0; b < n_buckets; ++b) {
              residuals.push_back(grace.residual_snapshot(
                  sched.buckets()[b].name,
                  Tensor::zeros(Shape{{sched.buckets()[b].numel}})));
            }
          }
          const std::vector<Tensor> opt_state =
              optimizer->export_state(setup.slot_numels);
          frame = core::seal_bootstrap_frame(
              std::span<const float>(params),
              std::span<const Tensor>(residuals),
              std::span<const Tensor>(opt_state),
              ctl != nullptr ? ctl->snapshot() : std::string());
        }
        comm.send(view.live_rank(r), frame, btag);
      }
    }
  };

  // One controller decision boundary. The per-bucket signal window is
  // this rank's probe totals minus the previous boundary's baseline
  // (totals are monotonic, so a resumed run sees the same windows as the
  // original run's tail); the windows are then summed across live ranks
  // with the deterministic ring allreduce — bit-identical on every rank
  // — before the controller steps, so all controllers decide identically
  // without any shared state. Every live rank calls this at the same
  // schedule points; the tag is the boundary count a joiner adopts too.
  auto control_step = [&](int epoch, int64_t it) {
    for (size_t b = 0; b < n_buckets; ++b) {
      const CompressionFidelityProbe::Totals t =
          fidelity->totals(rank, sched.buckets()[b].name);
      const CompressionFidelityProbe::Totals& s0 = ctl_base[b];
      float* s = ctl_sig.data() + b * control::Controller::kSignalsPerBucket;
      s[0] = static_cast<float>(t.samples - s0.samples);
      s[1] = static_cast<float>(t.cosine_sum - s0.cosine_sum);
      ctl_base[b] = t;
    }
    comm::allreduce_sum(comm, std::span<float>(ctl_sig),
                        kControlTagBase - ctl->boundaries());
    const std::vector<control::ControlDecision> switched =
        ctl->step(ctl_sig, epoch, it);
    for (const control::ControlDecision& d : switched) {
      grace.set_compressor_override(
          d.bucket_name, ctl->arm_spec(static_cast<size_t>(d.bucket)));
    }
  };

  for (int e0 = 0; e0 < cfg.epochs; ++e0) {
    const int epoch = cfg.start_epoch + e0;
    // The lr schedule runs on EVERY rank, parked ones included: a parked
    // rank's optimizer must track the members' decays so its state is
    // current the epoch it rejoins.
    if (cfg.lr_decay_every > 0 && epoch > 0 && epoch % cfg.lr_decay_every == 0) {
      optimizer->set_lr(optimizer->lr() * cfg.lr_decay_factor);
    }

    // The data partition is fixed by the view in force at the epoch's
    // start. A mid-epoch crash keeps these positions — survivors finish
    // the epoch on this schedule with the casualty's slices simply
    // dropped (degraded rounds) — and only the next epoch re-partitions.
    const core::MembershipView& epoch_view = membership.view_at(epoch);
    const int sched_rank = epoch_view.live_rank(rank);
    const int64_t sched_global_batch =
        static_cast<int64_t>(epoch_view.size()) * cfg.batch_per_worker;
    const int64_t iters_per_epoch =
        std::max<int64_t>(1, train_n / sched_global_batch);
    const auto order = epoch_order(train_n, cfg.seed, epoch);
    for (int64_t it = 0; it < iters_per_epoch; ++it) {
      const int to = membership.segment_at(epoch, it);
      if (to != seg) transition(to, epoch, e0 > 0 || it > 0);
      if (!member) {
        // Parked: an inactive row keeps this rank's log index-aligned
        // with the members'. The exchanges, check_sync and eval go on
        // without it. A crash casualty parks at the crash boundary: it
        // completed iteration it-1 including all of its sends (mailbox
        // puts never block), so the survivors are owed nothing, and its
        // undrained stall is never read.
        log.rows.emplace_back();
        continue;
      }
      const int64_t base = it * sched_global_batch +
                           static_cast<int64_t>(sched_rank) * cfg.batch_per_worker;
      std::span<const int64_t> slice;
      if (base + cfg.batch_per_worker <= train_n) {
        slice = std::span<const int64_t>(
            order.data() + base, static_cast<size_t>(cfg.batch_per_worker));
      } else {
        // Dataset smaller than one global batch: wrap around the epoch
        // order so every worker still sees a full batch (the only case
        // that reaches here, since iters_per_epoch floors otherwise).
        wrapped.resize(static_cast<size_t>(cfg.batch_per_worker));
        for (int64_t j = 0; j < cfg.batch_per_worker; ++j) {
          wrapped[static_cast<size_t>(j)] =
              order[static_cast<size_t>((base + j) % train_n)];
        }
        slice = wrapped;
      }
      model.module().zero_grad();
      const float loss = model.forward_backward(slice, batch_rng);

      const bool skip_round = plan != nullptr && plan->round_skipped(epoch, it);
      // Partial participation: a sat-out rank folds its gradients into the
      // error-feedback residual and ships an all-zero payload, so the
      // collective stays in lockstep and replicas remain bit-identical
      // (everyone still applies the same aggregate). Rank 0 always
      // participates; an outage window forces non-participation.
      const bool participate =
          !pp_on || plan->participates(rank, epoch, it);
      if (skip_round) {
        // Degraded round: the exchange is lost on every rank. Fold the
        // computed gradients into the error-feedback residual — at the
        // same bucket granularity a healthy round would have used — so
        // the work feeds the next round; no optimizer step (replicas
        // remain identical because everyone skips the same rounds).
        sched.absorb_all(grace);
      } else {
        // Submit every bucket (compensate + compress + memory update, all
        // compressor/EF state mutation and RNG draws, in pack order —
        // identical to the legacy exchange order), then wait for each in
        // submission order and scatter its aggregate into the optimizer.
        // A bucket whose storage went out with its payload (none) keeps
        // the aggregate as that storage for the next backward.
        for (size_t b = 0; b < n_buckets; ++b) {
          handles.push_back(
              participate
                  ? sched.submit_bucket(grace, b, /*instrument=*/true)
                  : sched.submit_bucket_zero(grace, b, /*instrument=*/true));
        }
        for (size_t b = 0; b < n_buckets; ++b) {
          // wait() accumulates into a fresh entry of the log.
          Tensor aggregated = grace.wait(std::move(handles[b]),
                                         &log.buckets.emplace_back());
          sched.apply_bucket(
              b, std::move(aggregated),
              [&](size_t slot, std::span<float> param, std::span<const float> g) {
                optimizer->apply(slot, param, g);
              });
        }
        handles.clear();
      }

      // The retry charges this rank's receives accumulated above; the fold
      // adds the plan's straggler and reconnect stalls.
      faults::FaultInjector* const injector =
          setup.transport[static_cast<size_t>(seg)].injector.get();
      log.rows.push_back(
          {loss, injector != nullptr ? injector->drain_stall(live_rank) : 0.0,
           epoch, it, /*active=*/true, /*exchanged=*/!skip_round,
           /*sat_out=*/!skip_round && !participate});
      // Intra-epoch decision boundary after every iteration but the
      // epoch's last, which the epoch-end boundary closes; the condition
      // depends only on shared schedule state, so every live rank takes it
      // together.
      if (ctl != nullptr && it + 1 < iters_per_epoch) control_step(epoch, it);
    }
    if (!member) continue;

    // Epoch-end decision boundary — always, including the final epoch,
    // so a run handing its snapshot to a resumed run carries the
    // post-epoch decision (the resume contract's alignment point).
    if (ctl != nullptr) control_step(epoch, /*it=*/-1);

    if (cfg.check_sync) {
      // All replicas must hold identical parameters: allreduce the sum of
      // all parameter values and compare against view size * local.
      float checksum = 0.0f;
      for (auto& p : model.module().parameters()) {
        checksum += ops::sum(p.value->data.f32());
      }
      float global = checksum;
      comm::allreduce_sum(comm, std::span<float>(&global, 1), /*tag=*/-epoch - 1);
      const float expect =
          checksum * static_cast<float>(views[static_cast<size_t>(seg)].size());
      const float tol = 1e-4f * (1.0f + std::fabs(expect));
      log.in_sync = log.in_sync && std::fabs(global - expect) <= tol;
    }

    if (rank == 0 &&
        (epoch % cfg.eval_every == 0 || e0 == cfg.epochs - 1)) {
      log.evals.push_back(model.evaluate());
      log.eval_epochs.push_back(epoch);
    }
  }

  if (rank == 0) {
    // Snapshot the final weights: the cheap handle for bit-identical
    // replay checks and crash hand-off equivalence tests.
    log.final_params = flat_parameters(model);
  }
}

// One alive rank's iteration in the opt-in recorders, in the order it
// happened, read off the rank's priced record: every duration is the one
// the charge and the critical path use, fleet stretch included. Bucket
// events carry the bucket's stable id and each stage's absolute start on
// the rank's simulated timeline (Chrome traces then show overlap); the
// registry's per-exchange distributions hold the same quantities, so its
// tails are comparable with the phase means. Rank 0's bucket totals are the
// tensor_trace.
void record(const Setup& setup, int rank, const IterationRow& row,
            std::span<const core::ExchangeStats> stats,
            const RankPrice& price, RunResult& result) {
  const TrainConfig& cfg = setup.cfg;
  const IterationClock& clock = setup.clock;
  const std::vector<BucketSpec>& bucket_plan = setup.bucket_plan;
  Trace* const trace = cfg.trace;
  MetricRegistry* const metrics = cfg.metrics;
  auto event = [&](Phase phase, int32_t tensor, double seconds,
                   uint64_t bytes, double start = -1.0) {
    if (trace == nullptr) return;
    trace->record(rank, TraceEvent{row.epoch, static_cast<int32_t>(row.iter),
                                   static_cast<int16_t>(rank), phase, tensor,
                                   seconds, bytes, start});
  };
  event(Phase::Forward, -1, price.forward_s, 0);
  event(Phase::Backward, -1, price.backward_s, 0);
  for (size_t b = 0; b < stats.size(); ++b) {
    const uint64_t wire_bytes = stats[b].wire_bytes;
    const BucketTiming& t = price.timings[b];
    const BucketSpan& span = price.schedule.spans[b];
    const int32_t id = bucket_plan[b].id;
    event(Phase::Compress, id, t.compress_s, 0, span.compress_start);
    event(Phase::Comm, id, t.comm_s, wire_bytes, span.comm_start);
    event(Phase::Decompress, id, t.decompress_s, 0, span.decompress_start);
    if (trace && rank == 0) {
      TensorTraceSummary& sum = result.tensor_trace[b];
      ++sum.exchanges;
      sum.compress_s += t.compress_s;
      sum.comm_s += t.comm_s;
      sum.decompress_s += t.decompress_s;
      sum.wire_bytes += wire_bytes;
    }
    if (metrics) {
      metrics->observe(rank, "exchange.compress_ns", t.compress_s * 1e9);
      metrics->observe(rank, "exchange.decompress_ns", t.decompress_s * 1e9);
      metrics->observe(rank, "exchange.comm_ns", t.comm_s * 1e9);
      metrics->observe(rank, "exchange.wire_bytes",
                       static_cast<double>(wire_bytes));
      metrics->observe(rank, "sched.bucket_bytes",
                       static_cast<double>(bucket_plan[b].numel) * 4.0);
    }
  }
  if (metrics && clock.overlap && !stats.empty()) {
    const BucketSchedule& bs = price.schedule;
    metrics->observe(rank, "sched.overlap_saved_ns",
                     (bs.additive_end - bs.exchange_end) * 1e9);
  }
  event(Phase::Optimizer, -1, setup.head.phases.optimizer_s, 0);
  const double stall_s = price.costs.stall_s;
  if (stall_s > 0.0) {
    event(Phase::Fault, -1, stall_s, 0);
    if (metrics) metrics->observe(rank, "fault.stall_ns", stall_s * 1e9);
  }
}

// The fold (single-threaded, after the join): price, record and charge
// every iteration from the per-rank logs, then assemble the result.
//
// Each iteration's alive ranks are priced in ascending rank order by the
// per-rank pricer simulate_scale shares (price_rank, sim/scheduler.h),
// written to the opt-in recorders, and folded into one charge
// (charge_iteration). A rank's stall is the retry stall it drained plus
// what the plan assigns to its (epoch, iteration) (FaultPlan::stall).
// Parked ranks' placeholder rows never bind anything. The additive figure
// is kept under overlap so the phase breakdown and the overlap saving stay
// reportable.
RunResult fold(const Setup& setup, std::vector<WorkerLog>& logs) {
  const TrainConfig& cfg = setup.cfg;
  const faults::FaultPlan* const plan = cfg.faults;
  const int n = cfg.n_workers;
  const IterationClock& clock = setup.clock;
  const double optimizer_s = setup.head.phases.optimizer_s;
  const std::vector<BucketSpec>& bucket_plan = setup.bucket_plan;
  Trace* const trace = cfg.trace;
  CriticalPathCollector* const cpath = cfg.critical_path;
  RunResult result = setup.head;
  const auto total_iters = static_cast<int64_t>(logs[0].rows.size());
  const size_t n_buckets = bucket_plan.size();
  if (trace) {
    result.tensor_trace.resize(n_buckets);
    for (size_t b = 0; b < n_buckets; ++b) {
      result.tensor_trace[b].name = bucket_plan[b].name;
      result.tensor_trace[b].numel = bucket_plan[b].numel;
    }
  }

  std::vector<double> iter_seconds(static_cast<size_t>(total_iters));
  std::vector<int64_t> iter_samples(static_cast<size_t>(total_iters));
  double compress_sum = 0.0, decompress_sum = 0.0, comm_sum = 0.0,
         stall_sum = 0.0, bytes_sum = 0.0;
  double additive_sum = 0.0, saved_sum = 0.0;
  result.overlap_enabled = cfg.time.overlap;
  std::vector<RankPrice> prices(static_cast<size_t>(n));
  std::vector<size_t> next_bucket(static_cast<size_t>(n), 0);
  // Trainer-level fault tallies per physical rank, each summed in its row
  // order and then folded in rank order (the stall seconds' association):
  // stragglers, outages and sat-out rounds, plus the run-wide
  // rounds_skipped and degraded_iters on rank 0.
  std::vector<faults::FaultCounters> rank_faults(static_cast<size_t>(n));
  result.rank_stall_s.assign(static_cast<size_t>(n), 0.0);
  std::vector<RankCosts> alive;
  std::vector<std::span<const BucketTiming>> alive_timings;
  for (int64_t it = 0; it < total_iters; ++it) {
    const auto i = static_cast<size_t>(it);
    alive.clear();
    alive_timings.clear();
    for (int r = 0; r < n; ++r) {
      const WorkerLog& log = logs[static_cast<size_t>(r)];
      const IterationRow& row = log.rows[i];
      if (!row.active) continue;
      std::span<const core::ExchangeStats> stats;
      size_t& next = next_bucket[static_cast<size_t>(r)];
      if (row.exchanged) {
        stats = std::span(log.buckets).subspan(next, n_buckets);
        next += n_buckets;
      }
      double stall_s = row.retry_stall_s;
      if (plan != nullptr) {
        faults::FaultCounters& c = rank_faults[static_cast<size_t>(r)];
        stall_s = plan->stall(r, row.epoch, row.iter, c) + row.retry_stall_s;
        c.sat_out_rounds += row.sat_out ? 1 : 0;
        if (r == 0 && !row.exchanged) ++c.rounds_skipped;
      }
      RankPrice& price = prices[static_cast<size_t>(r)];
      price_rank(stats, bucket_plan, clock, cfg.fleet.compute_scale(r),
                 stall_s, price);
      result.rank_stall_s[static_cast<size_t>(r)] += price.costs.stall_s;
      record(setup, r, row, stats, price, result);
      alive.push_back(price.costs);
      alive_timings.push_back(price.timings);
    }
    if (plan != nullptr && static_cast<int>(alive.size()) < n) {
      ++rank_faults[0].degraded_iters;
    }
    const IterationCharge charge =
        charge_iteration(alive, optimizer_s, cfg.time.overlap);
    iter_seconds[i] = charge.iteration_s;
    // Sat-out and outage ranks ran the iteration: their samples went to
    // the error-feedback residual.
    iter_samples[i] = static_cast<int64_t>(alive.size()) * cfg.batch_per_worker;
    additive_sum += charge.additive_s;
    if (cfg.time.overlap) saved_sum += charge.additive_s - charge.iteration_s;
    compress_sum += charge.compress_s;
    decompress_sum += charge.decompress_s;
    comm_sum += charge.comm_s;
    stall_sum += charge.stall_s;
    bytes_sum += static_cast<double>(prices[0].total.wire_bytes);
    if (cpath) cpath->add(charge, optimizer_s, alive_timings, cfg.time.overlap);
  }
  if (cpath) result.critical_path = cpath->summary();
  if (total_iters > 0) {
    const auto iters = static_cast<double>(total_iters);
    result.compress_s = (compress_sum + decompress_sum) / iters;
    result.wire_bytes_per_iter = bytes_sum / iters;
    result.phases.forward_s = clock.forward_s;
    result.phases.backward_s = clock.backward_s;
    result.phases.compress_s = compress_sum / iters;
    result.phases.comm_s = comm_sum / iters;
    result.phases.decompress_s = decompress_sum / iters;
    result.phases.stall_s = stall_sum / iters;
    double iter_sum = 0.0;
    for (double sec : iter_seconds) iter_sum += sec;
    result.iteration_s = iter_sum / iters;
    result.overlap_saved_s = saved_sum / iters;
    result.overlap_fraction =
        additive_sum > 0.0 ? saved_sum / additive_sum : 0.0;
  }

  // Steady-state throughput over the trailing window (paper: last 100
  // iters), counting the samples of the ranks that ran.
  const int64_t window = std::min<int64_t>(100, total_iters);
  if (window > 0) {
    double tail = 0.0;
    int64_t samples = 0;
    for (int64_t it = total_iters - window; it < total_iters; ++it) {
      tail += iter_seconds[static_cast<size_t>(it)];
      samples += iter_samples[static_cast<size_t>(it)];
    }
    result.throughput =
        static_cast<double>(samples) / std::max(tail, 1e-12);
  }

  // Epoch records: loss averages from worker 0, quality from evaluations.
  // Rank 0 is in every view and runs every iteration of the run, so its
  // rows are the run's schedule; epochs change length when the view does.
  const std::vector<IterationRow>& rows0 = logs[0].rows;
  const std::vector<models::EvalResult>& evals = logs[0].evals;
  const std::vector<int>& eval_epochs = logs[0].eval_epochs;
  double cum = 0.0;
  size_t eval_at = 0;
  for (size_t at = 0; at < rows0.size();) {
    EpochRecord rec;
    rec.epoch = rows0[at].epoch;
    int64_t count = 0;
    double loss = 0.0, epoch_time = 0.0;
    for (; at < rows0.size() && rows0[at].epoch == rec.epoch; ++at, ++count) {
      loss += rows0[at].loss;
      epoch_time += iter_seconds[at];
    }
    if (result.epochs.empty()) {
      // Epoch sample accounting (the epoch tail never enters an iteration
      // when the dataset size is not a multiple of the global batch),
      // quoted for the view in force at run start; epochs in a smaller
      // view cover more samples per iteration.
      result.samples_per_epoch =
          count * setup.membership.view_at(cfg.start_epoch).size() *
          cfg.batch_per_worker;
    }
    rec.train_loss = loss / static_cast<double>(count);
    rec.epoch_sim_seconds = epoch_time;
    cum += epoch_time;
    rec.cum_sim_seconds = cum;
    if (eval_at < eval_epochs.size() && eval_epochs[eval_at] == rec.epoch) {
      rec.quality = evals[eval_at].quality;
      ++eval_at;
    } else {
      rec.quality = result.epochs.empty() ? 0.0 : result.epochs.back().quality;
    }
    result.epochs.push_back(rec);
  }
  result.samples_dropped_per_epoch =
      std::max<int64_t>(0, setup.train_n - result.samples_per_epoch);
  result.total_sim_seconds = cum;
  if (!evals.empty()) {
    result.final_quality = evals.back().quality;
    result.best_quality = evals.front().quality;
    for (const auto& e : evals) result.best_quality = std::max(result.best_quality, e.quality);
  }
  for (const auto& log : logs) {
    result.replicas_in_sync = result.replicas_in_sync && log.in_sync;
  }

  // Physical transport counters across all ranks and collectives, folded
  // over every view's world.
  for (const ViewTransport& t : setup.transport) {
    result.comm_messages += t.world->messages_sent();
    result.comm_payload_bytes += t.world->payload_bytes_sent();
  }

  // Resilience accounting: the trainer-level tallies, then the link-layer
  // counters of every view's injector.
  if (plan != nullptr) {
    for (const faults::FaultCounters& c : rank_faults) result.faults += c;
    for (const ViewTransport& t : setup.transport) {
      result.faults += t.injector->totals();
    }
    result.faults.crashed_ranks = setup.crash_in_run ? 1 : 0;
    // Membership churn: count the leave/join events that actually fired
    // inside this run's absolute epoch window. Events at epoch E take
    // effect at E's boundary, so E == start_epoch transitions happened
    // before this run's first iteration only when resuming mid-schedule.
    for (const faults::ChurnEvent& ev : plan->spec().churn) {
      if (ev.epoch > cfg.start_epoch &&
          ev.epoch < cfg.start_epoch + cfg.epochs) {
        if (ev.join) {
          ++result.faults.joins;
        } else {
          ++result.faults.leaves;
        }
      }
    }
  }

  // Adaptive-controller outcome. The allreduced signals guarantee every
  // live rank decided identically, and a joiner adopts live rank 0's
  // controller; verify that invariant by comparing the serialized
  // controller states of the ranks still in the fleet at the end before
  // reporting rank 0's (a mismatch is a determinism bug, not a user error
  // — fail loudly).
  const control::Controller* ref = nullptr;
  for (const WorkerLog& log : logs) {
    if (!log.rows.empty() && !log.rows.back().active) continue;  // parked
    const control::Controller* c = log.controller.get();
    if (c == nullptr) continue;
    if (ref == nullptr) {
      ref = c;
    } else if (c->snapshot() != ref->snapshot()) {
      throw std::logic_error(
          "adaptive controller diverged across ranks (decision sequences "
          "are not identical)");
    }
  }
  if (ref != nullptr) result.control = ref->summary();

  // Fidelity / metrics snapshots (both merges are deterministic). The
  // controller's internal probe stays internal: result.fidelity is only
  // populated when the caller asked for a probe.
  if (cfg.fidelity) result.fidelity = cfg.fidelity->summaries();
  if (cfg.metrics) result.metric_histograms = cfg.metrics->histograms();

  result.final_parameters = std::move(logs[0].final_params);
  result.parameters_crc32 = util::crc32(
      std::as_bytes(std::span<const float>(result.final_parameters)));

  result.error_feedback = logs[0].error_feedback;
  return result;
}

}  // namespace

RunResult train(const ReplicaFactory& factory, const TrainConfig& cfg) {
  // Fail fast, on this thread: a throw from a worker thread would
  // std::terminate.
  cfg.validate();
  // One build per call: rank 0's replica sizes the run, and every other
  // rank starts from a copy of it, made here before any worker starts.
  std::vector<std::unique_ptr<models::DistributedModel>> replicas;
  replicas.push_back(factory(cfg.seed));
  const Setup setup(*replicas[0], cfg);
  for (int rank = 1; rank < cfg.n_workers; ++rank) {
    replicas.push_back(replicas[0]->replicate());
  }

  // Instantiate the shared compute pool before the per-rank worker threads
  // start. All ranks submit their kernel work to this one pool (sized by
  // GRACE_NUM_THREADS, not by n), each within its max(1, pool / n) lanes
  // (the lane rule, DESIGN.md §7): up to n = pool ranks, no more threads
  // run kernels at once than the pool has lanes. Determinism of the
  // kernels is unaffected because chunk boundaries ignore the rank count,
  // the pool size and the lanes.
  runtime::ThreadPool::global();

  std::vector<WorkerLog> logs(static_cast<size_t>(cfg.n_workers));
  std::vector<std::thread> threads;
  threads.reserve(logs.size());
  for (int rank = 0; rank < cfg.n_workers; ++rank) {
    threads.emplace_back(run_worker, std::cref(setup), rank,
                         std::ref(*replicas[static_cast<size_t>(rank)]),
                         std::ref(logs[static_cast<size_t>(rank)]));
  }
  for (auto& t : threads) t.join();
  return fold(setup, logs);
}

}  // namespace grace::sim
