#include "shadow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "comm/collectives.h"
#include "runtime/thread_pool.h"
#include "sim/scheduler.h"
#include "stats.h"
#include "tensor/ops.h"
#include "util/crc32.h"

namespace hostbench {
namespace {

using Clock = std::chrono::steady_clock;

// The per-rank-iteration figures summarize() reduces.
constexpr double LayerSummary::* kLayerFields[] = {
    &LayerSummary::build_ms,       &LayerSummary::forward_backward_mean_ms,
    &LayerSummary::evaluate_ms,    &LayerSummary::join_wait_ms,
    &LayerSummary::submit_ms,      &LayerSummary::decompress_ms,
    &LayerSummary::collective_ms,  &LayerSummary::apply_ms,
    &LayerSummary::wire_bytes_per_iter,
};

void check_supported(const grace::sim::TrainConfig& cfg) {
  cfg.validate();
  if (cfg.faults != nullptr || cfg.trace != nullptr ||
      cfg.fidelity != nullptr || cfg.metrics != nullptr ||
      cfg.critical_path != nullptr || cfg.grace.control.enabled() ||
      !cfg.fleet.uniform() || cfg.time.overlap) {
    throw std::invalid_argument(
        "run_shadow: only fault-free, unobserved, uniform-fleet, "
        "non-overlapped configurations are supported");
  }
}

// sim::train()'s epoch sample order: a shuffle seeded by (run seed, epoch),
// identical on every rank.
std::vector<int64_t> epoch_order(int64_t n, uint64_t seed, int epoch) {
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  grace::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(epoch));
  rng.shuffle(std::span<int64_t>(order));
  return order;
}

}  // namespace

ShadowResult run_shadow(const grace::sim::ReplicaFactory& factory,
                        const grace::sim::TrainConfig& cfg, bool spans) {
  using namespace grace;
  check_supported(cfg);
  const int n = cfg.n_workers;
  const comm::NetworkModel net = cfg.fleet.bottleneck(cfg.net);
  const int64_t global_batch = static_cast<int64_t>(n) * cfg.batch_per_worker;
  comm::World world(n);
  ShadowResult out;
  out.spans.resize(static_cast<size_t>(n));
  out.rank_crc32.resize(static_cast<size_t>(n));
  std::vector<uint8_t> sync_ok(static_cast<size_t>(n), 1);
  std::vector<int64_t> rank_iters(static_cast<size_t>(n), 0);
  std::vector<float> last_epoch_losses;  // rank 0 only

  const Clock::time_point t0 = Clock::now();
  auto now_ns = [t0] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
        .count();
  };

  auto worker_fn = [&](int rank) {
    std::vector<Span>& trace = out.spans[static_cast<size_t>(rank)];
    auto record = [&](Layer layer, int32_t iter, int64_t start,
                      double decompress_s = 0.0, uint64_t wire_bytes = 0) {
      trace.push_back(Span{layer, iter, start, now_ns() - start, decompress_s,
                           wire_bytes});
    };
    const int64_t build_start = spans ? now_ns() : 0;
    auto model = factory(cfg.seed);
    core::GraceWorker grace(cfg.grace, world.comm(rank), net,
                            cfg.seed * 7919ULL + static_cast<uint64_t>(rank));
    auto optimizer = optim::make_optimizer(cfg.optimizer);
    Rng batch_rng(cfg.seed * 104729ULL + static_cast<uint64_t>(rank));
    comm::Comm comm = world.comm(rank);
    const int64_t train_n = model->train_size();
    sim::ExchangeScheduler sched(model->module().parameters(),
                                 cfg.fusion_bytes);
    const size_t n_buckets = sched.n_buckets();
    if (spans) {
      // Reserve the whole run's spans up front so recording never
      // reallocates inside a timed region.
      const int64_t iters = std::max<int64_t>(1, train_n / global_batch);
      trace.reserve(static_cast<size_t>(cfg.epochs) *
                    (static_cast<size_t>(iters) * (1 + 3 * n_buckets) + 2) + 1);
      record(Layer::Build, -1, build_start);
    }

    std::vector<core::ExchangeHandle> handles;
    handles.reserve(n_buckets);
    std::vector<int64_t> wrapped;
    int32_t global_iter = 0;
    for (int e0 = 0; e0 < cfg.epochs; ++e0) {
      const int epoch = cfg.start_epoch + e0;
      if (cfg.lr_decay_every > 0 && epoch > 0 &&
          epoch % cfg.lr_decay_every == 0) {
        optimizer->set_lr(optimizer->lr() * cfg.lr_decay_factor);
      }
      const auto order = epoch_order(train_n, cfg.seed, epoch);
      const int64_t iters = std::max<int64_t>(1, train_n / global_batch);
      if (rank == 0) last_epoch_losses.clear();
      for (int64_t it = 0; it < iters; ++it, ++global_iter) {
        const int64_t base = it * global_batch +
                             static_cast<int64_t>(rank) * cfg.batch_per_worker;
        std::span<const int64_t> slice;
        if (base + cfg.batch_per_worker <= train_n) {
          slice = std::span<const int64_t>(
              order.data() + base, static_cast<size_t>(cfg.batch_per_worker));
        } else {
          wrapped.resize(static_cast<size_t>(cfg.batch_per_worker));
          for (int64_t j = 0; j < cfg.batch_per_worker; ++j) {
            wrapped[static_cast<size_t>(j)] =
                order[static_cast<size_t>((base + j) % train_n)];
          }
          slice = wrapped;
        }
        int64_t start = spans ? now_ns() : 0;
        model->module().zero_grad();
        const float loss = model->forward_backward(slice, batch_rng);
        if (spans) record(Layer::ForwardBackward, global_iter, start);

        for (size_t b = 0; b < n_buckets; ++b) {
          start = spans ? now_ns() : 0;
          handles.push_back(sched.submit_bucket(grace, b, /*instrument=*/true));
          if (spans) {
            record(Layer::Submit, global_iter, start, 0.0,
                   handles.back().stats.wire_bytes);
          }
        }
        for (size_t b = 0; b < n_buckets; ++b) {
          core::ExchangeStats stats;
          start = spans ? now_ns() : 0;
          Tensor aggregated = grace.wait(std::move(handles[b]), &stats);
          if (spans) {
            record(Layer::Wait, global_iter, start, stats.decompress_seconds);
          }
          start = spans ? now_ns() : 0;
          sched.apply_bucket(b, aggregated,
                             [&](size_t slot, std::span<float> param,
                                 std::span<const float> g) {
                               optimizer->apply(slot, param, g);
                             });
          if (spans) record(Layer::Apply, global_iter, start);
        }
        handles.clear();
        if (rank == 0) last_epoch_losses.push_back(loss);
        ++rank_iters[static_cast<size_t>(rank)];
      }

      if (cfg.check_sync) {
        const int64_t start = spans ? now_ns() : 0;
        float checksum = 0.0f;
        for (auto& p : model->module().parameters()) {
          checksum += ops::sum(p.value->data.f32());
        }
        float global = checksum;
        comm::allreduce_sum(comm, std::span<float>(&global, 1),
                            /*tag=*/-epoch - 1);
        const float expect = checksum * static_cast<float>(n);
        const float tol = 1e-4f * (1.0f + std::fabs(expect));
        if (std::fabs(global - expect) > tol) {
          sync_ok[static_cast<size_t>(rank)] = 0;
        }
        if (spans) record(Layer::Sync, -1, start);
      }
      if (rank == 0 &&
          (epoch % cfg.eval_every == 0 || e0 == cfg.epochs - 1)) {
        const int64_t start = spans ? now_ns() : 0;
        model->evaluate();
        if (spans) record(Layer::Evaluate, -1, start);
      }
    }

    std::vector<float> params;
    params.reserve(static_cast<size_t>(model->module().num_parameters()));
    for (auto& p : model->module().parameters()) {
      auto v = p.value->data.f32();
      params.insert(params.end(), v.begin(), v.end());
    }
    out.rank_crc32[static_cast<size_t>(rank)] =
        util::crc32(std::as_bytes(std::span<const float>(params)));
    if (rank == 0) {
      out.dense_bytes_per_iter = sched.total_numel() * 4;
    }
  };

  runtime::ThreadPool::global();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int rank = 0; rank < n; ++rank) threads.emplace_back(worker_fn, rank);
  for (auto& t : threads) t.join();
  out.wall_ns = now_ns();
  out.wall_s = static_cast<double>(out.wall_ns) * 1e-9;

  out.parameters_crc32 = out.rank_crc32[0];
  out.ranks_identical =
      std::all_of(out.rank_crc32.begin(), out.rank_crc32.end(),
                  [&](uint32_t c) { return c == out.parameters_crc32; });
  out.replicas_in_sync =
      std::all_of(sync_ok.begin(), sync_ok.end(), [](uint8_t ok) { return ok; });
  out.comm_messages = world.messages_sent();
  out.comm_payload_bytes = world.payload_bytes_sent();
  out.iterations = rank_iters[0];
  out.samples = out.iterations * global_batch;
  double loss_sum = 0.0;
  for (float l : last_epoch_losses) loss_sum += l;
  out.final_train_loss =
      last_epoch_losses.empty()
          ? 0.0
          : loss_sum / static_cast<double>(last_epoch_losses.size());
  return out;
}

namespace {

// One run's per-layer means; the sample vectors are appended to `pool`.
LayerSummary summarize_run(const ShadowResult& run, LayerSummary& pool) {
  LayerSummary s;
  const size_t n_ranks = run.spans.size();
  const auto iters = static_cast<size_t>(run.iterations);
  std::vector<double> fb_by_iter(iters * n_ranks, 0.0);  // [iter][rank]
  for (size_t r = 0; r < n_ranks; ++r) {
    int64_t last_end = 0;
    for (const Span& sp : run.spans[r]) {
      const double ms = static_cast<double>(sp.dur_ns) * 1e-6;
      last_end = std::max(last_end, sp.start_ns + sp.dur_ns);
      switch (sp.layer) {
        case Layer::Build:
          s.build_ms += ms;
          break;
        case Layer::ForwardBackward:
          s.forward_backward_mean_ms += ms;
          pool.forward_backward_ms.push_back(ms);
          if (sp.iter >= 0 && static_cast<size_t>(sp.iter) < iters) {
            fb_by_iter[static_cast<size_t>(sp.iter) * n_ranks + r] = ms;
          }
          break;
        case Layer::Evaluate:
          s.evaluate_ms += ms;
          break;
        case Layer::Submit:
          s.submit_ms += ms;
          s.wire_bytes_per_iter += static_cast<double>(sp.wire_bytes);
          break;
        case Layer::Wait:
          s.decompress_ms += sp.decompress_s * 1e3;
          s.collective_ms += ms - sp.decompress_s * 1e3;
          break;
        case Layer::Apply:
          s.apply_ms += ms;
          break;
        case Layer::Sync:
          s.collective_ms += ms;
          break;
      }
    }
    // A rank that has finished waits, until run_shadow joins it, for
    // rank 0's final evaluate.
    s.join_wait_ms += static_cast<double>(run.wall_ns - last_end) * 1e-6;
  }
  for (size_t it = 0; it < iters && n_ranks > 0; ++it) {
    const auto first = fb_by_iter.begin() + static_cast<int64_t>(it * n_ranks);
    const auto [lo, hi] =
        std::minmax_element(first, first + static_cast<int64_t>(n_ranks));
    pool.rank_skew_ms.push_back(*hi - *lo);
  }
  s.rank_iterations = run.iterations * static_cast<int64_t>(n_ranks);
  pool.rank_iterations += s.rank_iterations;
  if (s.rank_iterations > 0) {
    const auto ri = static_cast<double>(s.rank_iterations);
    for (double LayerSummary::*f : kLayerFields) s.*f /= ri;
  }
  return s;
}

}  // namespace

LayerSummary summarize(std::span<const ShadowResult> runs) {
  LayerSummary s;
  std::vector<LayerSummary> per_run;
  per_run.reserve(runs.size());
  for (const ShadowResult& run : runs) per_run.push_back(summarize_run(run, s));
  // The median across runs of each figure: a run slowed by a busy
  // neighbour on a shared host moves it less than it would a pooled mean.
  for (double LayerSummary::*f : kLayerFields) {
    std::vector<double> v;
    v.reserve(per_run.size());
    for (const LayerSummary& r : per_run) v.push_back(r.*f);
    s.*f = median(v);
  }
  return s;
}

}  // namespace hostbench
