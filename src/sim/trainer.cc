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
  double stall_s = 0.0;  // straggler delay + reconnect stall + retry charges
  int epoch = 0;
  int64_t iter = 0;  // within the epoch
  bool active = false;
  // False on a skipped round, which logs no per-bucket stats.
  bool exchanged = false;
};

// What one worker thread logs: raw facts only. The fold after the join
// prices, records and charges every iteration from these logs.
struct WorkerLog {
  std::vector<IterationRow> rows;  // index-aligned across ranks
  // The stats wait() filled, one per bucket in plan order, for every
  // exchanged row in row order.
  std::vector<core::ExchangeStats> buckets;
  bool in_sync = true;             // every check_sync this rank ran passed
  // Trainer-level fault tallies: this rank's stragglers, sat-out rounds
  // and outages, plus the run-wide rounds_skipped / degraded_iters, which
  // only rank 0 counts.
  faults::FaultCounters faults;
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
// controller's band (boundary counts never approach 1e6).
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
    if (faults->spec().has_churn() && grace.control.enabled()) {
      throw std::invalid_argument(
          "TrainConfig: the adaptive controller cannot run under a churn "
          "plan — parked ranks would miss its signal allreduces and the "
          "decision sequences would diverge");
    }
    // Consistency of the membership events themselves (leave of an absent
    // rank, join of a present one, rank 0 churning or crashing, ranks
    // outside the fleet) — fail here, on the caller's thread, not inside a
    // worker.
    core::MembershipSchedule(n_workers, faults->spec());
  }
  if (faults == nullptr || !faults->spec().has_churn()) {
    if (!grace.control.resume_state.empty() && start_epoch == 0) {
      // Resume state with start_epoch 0 is a schedule mismatch: the
      // controller would replay decisions against the wrong boundaries.
      throw std::invalid_argument(
          "TrainConfig: control.resume_state requires start_epoch > 0 — a "
          "fresh run cannot resume a decision log");
    }
  }
}

RunResult train(const ReplicaFactory& factory, const TrainConfig& cfg) {
  const int n = cfg.n_workers;
  // Fail fast, on this thread: a throw from a worker thread would
  // std::terminate.
  cfg.validate();
  // The run prices the fleet it runs, as simulate_scale does: n ranks,
  // whatever cfg.net.n_workers says. All collectives run at the pace of
  // the slowest member link; with the default uniform fleet the bottleneck
  // IS `net`, bit-identically.
  comm::NetworkModel net = cfg.net;
  net.n_workers = n;
  const comm::NetworkModel base_net = cfg.fleet.bottleneck(net);
  comm::World world(n);
  std::vector<WorkerLog> logs(static_cast<size_t>(n));
  std::vector<models::EvalResult> evals;   // written by rank 0 only
  std::vector<int> eval_epochs;
  std::vector<float> final_params;         // written by rank 0 only
  RunResult result;

  // Peek at the model to size the run (rank 0 builds another replica below).
  double fwd_flops_per_sample = 0.0;
  int64_t probe_train_n = 0;
  std::vector<BucketSpec> bucket_plan;
  std::vector<int64_t> slot_numels;  // parameter sizes, in module order
  {
    auto probe = factory(cfg.seed);
    result.model = probe->name();
    result.quality_metric = probe->quality_metric();
    result.model_parameters = probe->module().num_parameters();
    result.gradient_tensors = static_cast<int64_t>(probe->module().parameters().size());
    fwd_flops_per_sample = probe->flops_per_sample();
    probe_train_n = probe->train_size();
    // The bucket plan is a pure function of (tensor sizes, fusion_bytes),
    // so this probe-side plan matches every worker's scheduler exactly.
    std::vector<std::string> pnames;
    for (auto& p : probe->module().parameters()) {
      pnames.push_back(p.name);
      slot_numels.push_back(p.value->data.numel());
    }
    bucket_plan = plan_buckets(slot_numels, pnames, cfg.fusion_bytes);
    result.buckets_per_iter = static_cast<int64_t>(bucket_plan.size());
  }
  result.compressor = cfg.grace.compressor_spec;
  result.topology = cfg.grace.topology.to_string();

  const int64_t global_batch = static_cast<int64_t>(n) * cfg.batch_per_worker;

  // Fault-plan setup (docs/RESILIENCE.md): check the crash coordinates
  // against this run's schedule and install the injector on the world. The
  // crash counts for this run when it falls after the run's first
  // iteration — one exactly there happened before a resumed run started,
  // like a churn event at start_epoch.
  const faults::FaultPlan* const plan = cfg.faults;
  std::unique_ptr<faults::FaultInjector> injector;
  bool crash_in_run = false;
  if (plan != nullptr) {
    const faults::FaultSpec& spec = plan->spec();
    crash_in_run = spec.has_crash() &&
                   spec.crash_epoch < cfg.start_epoch + cfg.epochs &&
                   (spec.crash_epoch > cfg.start_epoch ||
                    (spec.crash_epoch == cfg.start_epoch && spec.crash_iter > 0));
    if (crash_in_run &&
        spec.crash_iter >= std::max<int64_t>(1, probe_train_n / global_batch)) {
      throw std::invalid_argument(
          "TrainConfig: crash_iter is beyond the crash epoch's iteration "
          "count");
    }
    injector = std::make_unique<faults::FaultInjector>(plan, base_net, n);
    world.install_faults(injector.get());
  }

  // Membership (core/membership.h): the plan's churn events and its crash
  // as one schedule of world views — a single full-strength view without a
  // plan. Every view's transport is built here, on this thread; workers
  // only ever rebind onto it when their view changes. Full-strength views
  // reuse the base world and injector (all n physical ranks are members,
  // so comm ranks line up). Smaller views get their own world, priced at
  // the bottleneck link over their members, with an injector of their own:
  // live ranks renumber, so sharing the base injector's slots would race
  // survivors against other physical ranks on the stall accumulators.
  const core::MembershipSchedule membership(
      n, plan != nullptr ? plan->spec() : faults::FaultSpec{});
  const std::vector<core::MembershipView>& views = membership.views();
  std::vector<std::unique_ptr<comm::World>> view_worlds(views.size());
  std::vector<std::unique_ptr<faults::FaultInjector>> view_injectors(
      views.size());
  std::vector<comm::NetworkModel> view_nets(views.size(), base_net);
  for (size_t v = 0; v < views.size(); ++v) {
    const core::MembershipView& view = views[v];
    if (view.size() == n) continue;
    comm::NetworkModel& vnet = view_nets[v];
    vnet = cfg.fleet.bottleneck(net, std::span<const int>(view.ranks));
    vnet.n_workers = view.size();
    view_worlds[v] = std::make_unique<comm::World>(view.size());
    view_injectors[v] =
        std::make_unique<faults::FaultInjector>(plan, vnet, view.size());
    view_worlds[v]->install_faults(view_injectors[v].get());
  }

  bool compressing =
      core::parse_spec(cfg.grace.compressor_spec).name != "none";

  // Adaptive controller setup (src/control, DESIGN.md §11). Validate on
  // this thread — a bad policy name or arm spec must not throw inside a
  // worker — and auto-attach an internal fidelity probe when the caller
  // did not supply one (the controller's signals come from the probe).
  const control::ControlConfig& ctl_cfg = cfg.grace.control;
  const bool ctl_on = ctl_cfg.enabled();
  std::unique_ptr<CompressionFidelityProbe> ctl_probe_storage;
  std::vector<std::unique_ptr<control::Controller>> controllers(
      static_cast<size_t>(ctl_on ? n : 0));
  if (ctl_on) {
    ctl_cfg.validate();
    for (const std::string& arm : ctl_cfg.arms) {
      core::make_compressor(arm);  // fail fast on an unknown arm spec
      // Any arm may serve any bucket at some point: the per-tensor
      // dispatch overhead applies whenever any candidate compresses.
      compressing = compressing || core::parse_spec(arm).name != "none";
    }
    if (cfg.fidelity == nullptr) {
      ctl_probe_storage = std::make_unique<CompressionFidelityProbe>(
          n, ctl_cfg.probe_every_k);
    }
  }

  // The simulated clock every rank is priced with (before its fleet
  // stretch).
  const IterationClock clock = iteration_clock(
      cfg.time, fwd_flops_per_sample, cfg.batch_per_worker, compressing);
  result.compute_s = clock.compute_s;
  const double optimizer_s = cfg.time.optimizer_seconds(result.model_parameters);
  result.optimizer_s = optimizer_s;

  Trace* const trace = cfg.trace;
  CompressionFidelityProbe* const fidelity =
      cfg.fidelity != nullptr ? cfg.fidelity : ctl_probe_storage.get();
  MetricRegistry* const metrics = cfg.metrics;
  CriticalPathCollector* const cpath = cfg.critical_path;
  if (cpath != nullptr && cpath->n_ranks() != n) {
    throw std::invalid_argument(
        "TrainConfig: critical_path collector sized for a different world");
  }
  if (cpath != nullptr && cpath->iterations() > 0) {
    throw std::invalid_argument(
        "TrainConfig: critical_path collector already holds another run's "
        "iterations; use a fresh collector per train() call");
  }
  if (ctl_on && fidelity->n_ranks() < n) {
    throw std::invalid_argument(
        "TrainConfig: the controller's fidelity probe is sized for a "
        "smaller world");
  }

  auto worker_fn = [&](int rank) {
    auto model = factory(cfg.seed);  // same init seed on every worker
    core::GraceWorker grace(cfg.grace, world.comm(rank),
                            base_net, cfg.seed * 7919ULL + static_cast<uint64_t>(rank));
    auto optimizer = optim::make_optimizer(cfg.optimizer);
    Rng batch_rng(cfg.seed * 104729ULL + static_cast<uint64_t>(rank));
    WorkerLog& log = logs[static_cast<size_t>(rank)];
    comm::Comm comm = world.comm(rank);

    const int64_t train_n = model->train_size();
    // Every exchange flows through the bucket scheduler; the legacy
    // per-tensor and all-fused paths are its fusion_bytes = 0 / SIZE_MAX
    // endpoints (sim/scheduler.h).
    ExchangeScheduler sched(model->module().parameters(), cfg.fusion_bytes);
    const size_t n_buckets = sched.n_buckets();
    std::vector<core::ExchangeHandle> handles;  // per-iter, reused
    handles.reserve(n_buckets);
    std::vector<int64_t> wrapped;  // slice buffer when the batch wraps

    // Adaptive controller (one identical instance per rank). Initial arm
    // routing is applied before the first iteration; afterwards switches
    // happen only inside control_step, at decision boundaries.
    control::Controller* ctl = nullptr;
    std::vector<CompressionFidelityProbe::Totals> ctl_base;
    std::vector<float> ctl_sig;
    int ctl_boundary = 0;
    if (ctl_on) {
      std::vector<std::string> bucket_names;
      bucket_names.reserve(n_buckets);
      for (const BucketSpec& b : sched.buckets()) bucket_names.push_back(b.name);
      controllers[static_cast<size_t>(rank)] =
          std::make_unique<control::Controller>(ctl_cfg,
                                                std::move(bucket_names),
                                                cfg.seed);
      ctl = controllers[static_cast<size_t>(rank)].get();
      ctl_base.resize(n_buckets);
      ctl_sig.resize(ctl->signal_size());
      for (size_t b = 0; b < n_buckets; ++b) {
        grace.set_compressor_override(sched.buckets()[b].name,
                                      ctl->arm_spec(b));
      }
    }

    // This worker's place in the membership schedule. Every rank starts in
    // view 0 — the full fleet on the base world — and moves only through
    // transition(), when the view in force changes.
    int seg = 0;
    bool member = true;
    int live_n = n;
    int live_rank = rank;
    faults::FaultInjector* live_injector = injector.get();
    bool halted = false;  // CrashPolicy::Halt fired
    const bool pp_on =
        plan != nullptr && plan->spec().has_partial_participation();

    // The one membership transition, churn or crash. Members of view `s`
    // bind its pre-built world, injector and bottleneck net under
    // contiguous live renumbering; compressor and error-feedback state
    // carry over untouched. They restart the exchange tag sequence, so a
    // rank whose counter froze while parked agrees with the others on PS
    // shard routing. Non-members park. With `bootstrap`, joiners then
    // install the parameters, EF residuals and optimizer state of live
    // rank 0 over the CRC-sealed frame path; a resumed run's first
    // iteration skips that, since every replica starts from the same
    // weights.
    auto transition = [&](int s, int epoch, bool bootstrap) {
      const core::MembershipView& prev = views[static_cast<size_t>(seg)];
      const core::MembershipView& view = views[static_cast<size_t>(s)];
      seg = s;
      member = view.contains(rank);
      if (!member) return;
      live_n = view.size();
      live_rank = view.live_rank(rank);
      const auto v = static_cast<size_t>(s);
      live_injector = view_injectors[v] ? view_injectors[v].get() : injector.get();
      comm = (view_worlds[v] ? *view_worlds[v] : world).comm(live_rank);
      grace.rebind(comm, view_nets[v]);
      grace.reset_tags();
      if (!bootstrap) return;
      const int btag = kBootstrapTagBase - epoch;
      if (!prev.contains(rank)) {
        // Joiner: install rank 0's parameters, EF residuals (in bucket
        // order) and optimizer state. Opening the frame verifies its CRC
        // and that it fits this replica's parameter slots.
        const core::BootstrapState st =
            core::open_bootstrap_frame(comm.recv(0, btag), slot_numels);
        size_t at = 0;
        for (auto& p : model->module().parameters()) {
          auto vals = p.value->data.f32();
          std::copy_n(st.params.begin() + static_cast<int64_t>(at),
                      vals.size(), vals.begin());
          at += vals.size();
        }
        for (size_t b = 0; b < st.residuals.size() && b < n_buckets; ++b) {
          grace.install_residual(sched.buckets()[b].name, st.residuals[b]);
        }
        optimizer->install_state(st.optimizer);
      } else if (live_rank == 0) {
        Tensor frame;  // sealed once, sent to every joiner
        for (int r : view.ranks) {
          if (prev.contains(r)) continue;
          if (frame.empty()) {
            const std::vector<float> params = flat_parameters(*model);
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
                optimizer->export_state(slot_numels);
            frame = core::seal_bootstrap_frame(
                std::span<const float>(params),
                std::span<const Tensor>(residuals),
                std::span<const Tensor>(opt_state));
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
    // — before the policy steps, so all controllers decide identically
    // without any shared state. Every live rank calls this at the same
    // schedule points.
    auto control_step = [&](int epoch, int64_t it) {
      for (size_t b = 0; b < n_buckets; ++b) {
        const CompressionFidelityProbe::Totals t =
            fidelity->totals(rank, sched.buckets()[b].name);
        const CompressionFidelityProbe::Totals& s0 = ctl_base[b];
        float* s = ctl_sig.data() + b * control::Controller::kSignalsPerBucket;
        s[0] = static_cast<float>(t.samples - s0.samples);
        s[1] = static_cast<float>(t.cosine_sum - s0.cosine_sum);
        s[2] = static_cast<float>(t.sign_sum - s0.sign_sum);
        s[3] = static_cast<float>(t.residual_sum - s0.residual_sum);
        s[4] = static_cast<float>(t.grad_sum - s0.grad_sum);
        s[5] = static_cast<float>(t.wire_bits - s0.wire_bits);
        s[6] = static_cast<float>(t.dense_bits - s0.dense_bits);
        ctl_base[b] = t;
      }
      comm::allreduce_sum(comm, std::span<float>(ctl_sig),
                          kControlTagBase - ctl_boundary);
      ++ctl_boundary;
      const std::vector<control::ControlDecision> switched =
          ctl->step(ctl_sig, epoch, it);
      for (const control::ControlDecision& d : switched) {
        grace.set_compressor_override(
            d.bucket_name, ctl->arm_spec(static_cast<size_t>(d.bucket)));
        if (ctl_cfg.residual_carry == control::ResidualCarry::Flush) {
          grace.flush_residual(d.bucket_name);
        }
      }
      if (metrics) {
        metrics->inc(rank, "control.boundaries");
        if (!switched.empty()) {
          metrics->inc(rank, "control.switches", switched.size());
        }
      }
    };

    for (int e0 = 0; e0 < cfg.epochs && !halted; ++e0) {
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
        if (cfg.crash_policy == faults::CrashPolicy::Halt && plan != nullptr &&
            plan->crash_at(epoch, it)) {
          halted = true;  // every rank stops at the crash boundary
          break;
        }
        const int s = membership.segment_at(epoch, it);
        if (s != seg) transition(s, epoch, e0 > 0 || it > 0);
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
        if (fidelity) {
          // Sample every K-th iteration: attach the probe to this worker's
          // exchanges for exactly the sampled iterations. Samples are
          // recorded under the stable physical rank, not comm_.rank() —
          // after a membership rebind the live rank would alias another
          // rank's samples into this slot, which would skew the
          // controller's per-rank windows.
          grace.set_probe(
              fidelity->should_sample(epoch * iters_per_epoch + it)
                  ? fidelity
                  : nullptr,
              rank);
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
        model->module().zero_grad();
        const float loss = model->forward_backward(slice, batch_rng);

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
          if (rank == 0) ++log.faults.rounds_skipped;
        } else {
          // Submit every bucket (compensate + compress + memory update, all
          // compressor/EF state mutation and RNG draws, in pack order —
          // identical to the legacy exchange order), then wait for each in
          // submission order and scatter its aggregate into the optimizer.
          if (!participate) ++log.faults.sat_out_rounds;
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
                b, aggregated,
                [&](size_t slot, std::span<float> param, std::span<const float> g) {
                  optimizer->apply(slot, param, g);
                });
          }
          handles.clear();
        }

        // Fault stall: the straggler delay this plan assigns to (rank,
        // epoch, it) plus every simulated retry charge this rank's
        // receives accumulated during the exchanges above.
        double stall = 0.0;
        if (plan != nullptr) {
          const double delay = plan->straggler_delay(rank, epoch, it);
          if (delay > 0.0) {
            ++log.faults.straggler_events;
            log.faults.straggler_stall_s += delay;
            stall += delay;
          }
          if (pp_on && plan->spec().outage_prob > 0.0) {
            // Count each outage window once (on entry) and charge the
            // reconnect stall the first iteration after it ends.
            if (plan->in_outage(rank, epoch, it) &&
                (it == 0 || !plan->in_outage(rank, epoch, it - 1))) {
              ++log.faults.outages;
            }
            if (plan->outage_reconnect(rank, epoch, it)) {
              const double rs = plan->spec().outage_reconnect_stall_s;
              if (rs > 0.0) {
                log.faults.outage_stall_s += rs;
                stall += rs;
              }
            }
          }
          stall += live_injector->drain_stall(live_rank);
          if (rank == 0 && live_n < n) ++log.faults.degraded_iters;
        }
        log.rows.push_back({loss, stall, epoch, it, /*active=*/true,
                            /*exchanged=*/!skip_round});
        // Intra-epoch decision boundary (never doubled with the epoch-end
        // one); the condition depends only on shared schedule state, so
        // every live rank takes it together.
        if (ctl != nullptr && ctl_cfg.decide_every_iters > 0 &&
            (it + 1) % ctl_cfg.decide_every_iters == 0 &&
            it + 1 < iters_per_epoch) {
          control_step(epoch, it);
        }
      }
      if (halted || !member) continue;

      // Epoch-end decision boundary — always, including the final epoch,
      // so a run handing its snapshot to a resumed run carries the
      // post-epoch decision (the resume contract's alignment point).
      if (ctl != nullptr) control_step(epoch, /*it=*/-1);

      if (cfg.check_sync) {
        // All replicas must hold identical parameters: allreduce the sum of
        // all parameter values and compare against live_n * local.
        float checksum = 0.0f;
        for (auto& p : model->module().parameters()) {
          checksum += ops::sum(p.value->data.f32());
        }
        float global = checksum;
        comm::allreduce_sum(comm, std::span<float>(&global, 1), /*tag=*/-epoch - 1);
        const float expect = checksum * static_cast<float>(live_n);
        const float tol = 1e-4f * (1.0f + std::fabs(expect));
        log.in_sync = log.in_sync && std::fabs(global - expect) <= tol;
      }

      if (rank == 0 &&
          (epoch % cfg.eval_every == 0 || e0 == cfg.epochs - 1)) {
        evals.push_back(model->evaluate());
        eval_epochs.push_back(epoch);
      }
    }

    if (rank == 0) {
      // Snapshot the final weights: the cheap handle for bit-identical
      // replay checks and crash hand-off equivalence tests.
      final_params = flat_parameters(*model);
    }
  };

  // Instantiate the shared compute pool before the per-rank worker threads
  // start. All ranks then submit their kernel work to this one pool (sized
  // by GRACE_NUM_THREADS, not by n), so running more simulated ranks never
  // oversubscribes the machine; determinism of the kernels is unaffected
  // because chunk boundaries ignore both rank count and pool size.
  runtime::ThreadPool::global();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int rank = 0; rank < n; ++rank) threads.emplace_back(worker_fn, rank);
  for (auto& t : threads) t.join();

  // --- The fold (single-threaded): price, record and charge every
  // iteration from the per-rank logs ---
  //
  // Each iteration's alive ranks are priced in ascending rank order by the
  // per-rank pricer simulate_scale shares (price_rank, sim/scheduler.h),
  // written to the opt-in recorders, and folded into one charge
  // (charge_iteration). Parked ranks' placeholder rows never bind anything.
  // The additive figure is kept under overlap so the phase breakdown and
  // the overlap saving stay reportable.
  const auto total_iters = static_cast<int64_t>(logs[0].rows.size());
  const size_t n_buckets = bucket_plan.size();
  if (trace) {
    result.tensor_trace.resize(n_buckets);
    for (size_t b = 0; b < n_buckets; ++b) {
      result.tensor_trace[b].name = bucket_plan[b].name;
      result.tensor_trace[b].numel = bucket_plan[b].numel;
    }
  }
  // One alive rank's iteration in the recorders, in the order it happened.
  // Trace and metric durations are the testbed-scaled stage seconds before
  // the rank's fleet stretch. Bucket events carry the bucket's stable id
  // and each stage's absolute start on the rank's simulated timeline
  // (Chrome traces then show overlap); the registry's per-exchange
  // distributions hold the same quantities, so its tails are comparable
  // with the phase means. Rank 0's bucket totals are the tensor_trace.
  auto record = [&](int rank, const IterationRow& row,
                    std::span<const core::ExchangeStats> stats,
                    const RankPrice& price) {
    auto event = [&](Phase phase, int32_t tensor, double seconds,
                     uint64_t bytes, double start = -1.0) {
      if (trace == nullptr) return;
      trace->record(rank, TraceEvent{row.epoch, static_cast<int32_t>(row.iter),
                                     static_cast<int16_t>(rank), phase, tensor,
                                     seconds, bytes, start});
    };
    const double compute_scale = cfg.fleet.compute_scale(rank);
    event(Phase::Forward, -1, clock.forward_s * compute_scale, 0);
    event(Phase::Backward, -1, clock.backward_s * compute_scale, 0);
    for (size_t b = 0; b < stats.size(); ++b) {
      const core::ExchangeStats& s = stats[b];
      const BucketTiming t =
          bucket_timing(s, 0.0, clock.time_scale, clock.fixed_s, 1.0);
      const BucketSpan& span = price.schedule.spans[b];
      const int32_t id = bucket_plan[b].id;
      event(Phase::Compress, id, t.compress_s, 0, span.compress_start);
      event(Phase::Comm, id, t.comm_s, s.wire_bytes, span.comm_start);
      event(Phase::Decompress, id, t.decompress_s, 0, span.decompress_start);
      if (trace && rank == 0) {
        TensorTraceSummary& sum = result.tensor_trace[b];
        ++sum.exchanges;
        sum.compress_s += t.compress_s;
        sum.comm_s += t.comm_s;
        sum.decompress_s += t.decompress_s;
        sum.wire_bytes += s.wire_bytes;
      }
      if (metrics) {
        metrics->inc(rank, "exchange.count");
        metrics->inc(rank, "exchange.wire_bytes_total", s.wire_bytes);
        metrics->observe(rank, "exchange.compress_ns", t.compress_s * 1e9);
        metrics->observe(rank, "exchange.decompress_ns", t.decompress_s * 1e9);
        metrics->observe(rank, "exchange.comm_ns", t.comm_s * 1e9);
        metrics->observe(rank, "exchange.wire_bytes",
                         static_cast<double>(s.wire_bytes));
        metrics->inc(rank, "sched.bucket_exchanges");
        metrics->observe(rank, "sched.bucket_bytes",
                         static_cast<double>(bucket_plan[b].numel) * 4.0);
      }
    }
    if (metrics && clock.overlap && !stats.empty()) {
      const BucketSchedule& bs = price.schedule;
      metrics->observe(rank, "sched.overlap_saved_ns",
                       (bs.additive_end - bs.exchange_end) * 1e9);
    }
    event(Phase::Optimizer, -1, optimizer_s, 0);
    if (row.stall_s > 0.0) {
      event(Phase::Fault, -1, row.stall_s, 0);
      if (metrics) metrics->observe(rank, "fault.stall_ns", row.stall_s * 1e9);
    }
  };

  std::vector<double> iter_seconds(static_cast<size_t>(total_iters));
  std::vector<int64_t> iter_samples(static_cast<size_t>(total_iters));
  double compress_sum = 0.0, decompress_sum = 0.0, comm_sum = 0.0,
         stall_sum = 0.0, bytes_sum = 0.0;
  double additive_sum = 0.0, saved_sum = 0.0;
  result.overlap_enabled = cfg.time.overlap;
  std::vector<RankPrice> prices(static_cast<size_t>(n));
  std::vector<size_t> next_bucket(static_cast<size_t>(n), 0);
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
      RankPrice& price = prices[static_cast<size_t>(r)];
      price_rank(stats, bucket_plan, clock, cfg.fleet.compute_scale(r),
                 row.stall_s, price);
      record(r, row, stats, price);
      alive.push_back(price.costs);
      alive_timings.push_back(price.timings);
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
  if (trace) result.trace_events_dropped = trace->dropped();
  if (cpath) result.critical_path = cpath->summary();
  if (total_iters > 0) {
    const auto iters = static_cast<double>(total_iters);
    result.comm_s = comm_sum / iters;
    result.compress_s = (compress_sum + decompress_sum) / iters;
    result.wire_bytes_per_iter = bytes_sum / iters;
    result.phases.forward_s = clock.forward_s;
    result.phases.backward_s = clock.backward_s;
    result.phases.compress_s = compress_sum / iters;
    result.phases.comm_s = result.comm_s;
    result.phases.decompress_s = decompress_sum / iters;
    result.phases.optimizer_s = optimizer_s;
    result.phases.stall_s = stall_sum / iters;
    double iter_sum = 0.0;
    for (double s : iter_seconds) iter_sum += s;
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
          count * membership.view_at(cfg.start_epoch).size() *
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
      std::max<int64_t>(0, probe_train_n - result.samples_per_epoch);
  result.total_sim_seconds = cum;
  if (!evals.empty()) {
    result.final_quality = evals.back().quality;
    result.best_quality = evals.front().quality;
    for (const auto& e : evals) result.best_quality = std::max(result.best_quality, e.quality);
  }
  for (const auto& log : logs) {
    result.replicas_in_sync = result.replicas_in_sync && log.in_sync;
  }

  // Physical transport counters across all ranks and collectives. Smaller
  // membership views run on their own Worlds, so fold those in too.
  result.comm_messages = world.messages_sent();
  result.comm_payload_bytes = world.payload_bytes_sent();
  for (const auto& vw : view_worlds) {
    if (!vw) continue;
    result.comm_messages += vw->messages_sent();
    result.comm_payload_bytes += vw->payload_bytes_sent();
  }

  // Resilience accounting: fold the link-layer counters of every injector
  // the run used — the base world's, then each smaller view's, whose live
  // rank l belongs to physical rank view.ranks[l] — with the trainer-level
  // tallies, and mirror everything into the metric registry (before its
  // snapshot below) so fault counters ride the same export path as the
  // exchange metrics.
  if (plan != nullptr) {
    result.faults = injector->totals();
    std::vector<faults::FaultCounters> rank_faults(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      rank_faults[static_cast<size_t>(r)] = injector->rank_counters(r);
    }
    for (size_t v = 0; v < views.size(); ++v) {
      if (!view_injectors[v]) continue;
      result.faults += view_injectors[v]->totals();
      for (int l = 0; l < views[v].size(); ++l) {
        rank_faults[static_cast<size_t>(views[v].ranks[static_cast<size_t>(l)])] +=
            view_injectors[v]->rank_counters(l);
      }
    }
    for (int r = 0; r < n; ++r) {
      result.faults += logs[static_cast<size_t>(r)].faults;
      rank_faults[static_cast<size_t>(r)] += logs[static_cast<size_t>(r)].faults;
    }
    result.faults.crashed_ranks = crash_in_run ? 1 : 0;
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
    if (metrics) {
      // Link-layer and straggler counters per physical rank; run-wide
      // facts once, on rank 0. Zero counters are not created.
      using faults::FaultCounters;
      struct Mirror {
        const char* name;
        uint64_t FaultCounters::*field;
      };
      static constexpr Mirror kPerRank[] = {
          {"fault.attempts_staged", &FaultCounters::attempts_staged},
          {"fault.drops_detected", &FaultCounters::drops_detected},
          {"fault.corruptions_detected", &FaultCounters::corruptions_detected},
          {"fault.retries", &FaultCounters::retries},
          {"fault.straggler_events", &FaultCounters::straggler_events}};
      static constexpr Mirror kRunWide[] = {
          {"fault.rounds_skipped", &FaultCounters::rounds_skipped},
          {"fault.crashed_ranks", &FaultCounters::crashed_ranks},
          {"fault.leaves", &FaultCounters::leaves},
          {"fault.joins", &FaultCounters::joins},
          {"fault.sat_out_rounds", &FaultCounters::sat_out_rounds},
          {"fault.outages", &FaultCounters::outages}};
      auto mirror = [&](int r, const FaultCounters& c,
                        std::span<const Mirror> fields) {
        for (const Mirror& m : fields) {
          if (c.*m.field) metrics->inc(r, m.name, c.*m.field);
        }
      };
      for (int r = 0; r < n; ++r) {
        mirror(r, rank_faults[static_cast<size_t>(r)], kPerRank);
      }
      mirror(0, result.faults, kRunWide);
    }
  }

  // Adaptive-controller outcome. The allreduced signals guarantee every
  // live rank decided identically; verify that invariant by comparing the
  // serialized controller states of the ranks still in the fleet at the
  // end before reporting rank 0's (a mismatch is a determinism bug, not a
  // user error — fail loudly).
  if (ctl_on) {
    const control::Controller* ref = nullptr;
    for (int r = 0; r < n; ++r) {
      const WorkerLog& log = logs[static_cast<size_t>(r)];
      if (!log.rows.empty() && !log.rows.back().active) continue;  // parked
      const control::Controller* c = controllers[static_cast<size_t>(r)].get();
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
  }

  // Fidelity / metrics snapshots (both merges are deterministic). The
  // controller's internal probe stays internal: result.fidelity is only
  // populated when the caller asked for a probe.
  if (cfg.fidelity) result.fidelity = cfg.fidelity->summaries();
  if (metrics) {
    result.metric_counters = metrics->counters();
    result.metric_histograms = metrics->histograms();
  }

  result.final_parameters = std::move(final_params);
  result.parameters_crc32 = util::crc32(
      std::as_bytes(std::span<const float>(result.final_parameters)));

  result.error_feedback =
      core::GraceWorker(cfg.grace, world.comm(0), base_net, 0)
          .error_feedback_enabled();
  return result;
}

}  // namespace grace::sim
