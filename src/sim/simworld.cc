#include "sim/simworld.h"

#include <algorithm>
#include <ctime>
#include <limits>
#include <sstream>
#include <vector>

#include "comm/topology.h"
#include "core/registry.h"
#include "sim/scheduler.h"
#include "tensor/rng.h"
#include "util/json.h"

namespace grace::sim {
namespace {

// Thread-CPU time, same clock the thread-backed GraceWorker measures its
// codec kernels with.
double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ScaleResult simulate_scale(const ReplicaFactory& factory,
                           const TrainConfig& cfg) {
  const int n = cfg.n_workers;
  comm::NetworkModel net = cfg.net;
  net.n_workers = n;
  // Heterogeneous fleets (comm/fleet.h): collectives run at the bottleneck
  // member link, compute and codec seconds stretch by the slowest member's
  // compute multiplier. Uniform fleets hand `net` back unchanged and scale
  // by exactly 1.0, so every figure stays bit-identical — and the wire
  // VOLUME closed forms below never see the fleet at all, which is what
  // keeps the transport counters pinned to the thread-backed World.
  cfg.fleet.validate(n);
  net = cfg.fleet.bottleneck(net);
  const double worst_compute = cfg.fleet.max_compute_scale();
  const auto topo = comm::make_topology(cfg.grace.topology, net);  // validates
  const comm::TopologyKind kind = cfg.grace.topology.kind;

  ScaleResult r;
  r.n_workers = n;
  r.epochs = cfg.epochs;
  r.topology = cfg.grace.topology.to_string();
  r.compressor = cfg.grace.compressor_spec;
  r.fleet = cfg.fleet.name();
  r.fleet_max_compute_scale = worst_compute;

  // The probe rank: one real replica and one real GraceWorker on a 1-rank
  // world. Everything below only calls submit() (and the compressor
  // directly), which never touches the comm handle.
  auto model = factory(cfg.seed);
  r.model = model->name();
  comm::World probe_world(1);
  core::GraceWorker grace(cfg.grace, probe_world.comm(0), net,
                          cfg.seed * 7919ULL);
  ExchangeScheduler sched(model->module().parameters(), cfg.fusion_bytes);
  const size_t n_buckets = sched.n_buckets();
  r.buckets_per_iter = static_cast<int64_t>(n_buckets);

  const int64_t train_n = model->train_size();
  const int64_t global_batch =
      static_cast<int64_t>(n) * cfg.batch_per_worker;
  r.iters_per_epoch = std::max<int64_t>(1, train_n / global_batch);

  // One real forward/backward over this rank's first batch gives the
  // submit pass realistic gradients (payload sizes for value-dependent
  // compressors, codec timings on real data).
  Rng batch_rng(cfg.seed * 104729ULL);
  std::vector<int64_t> slice(static_cast<size_t>(cfg.batch_per_worker));
  for (size_t j = 0; j < slice.size(); ++j) {
    slice[j] = static_cast<int64_t>(j) % std::max<int64_t>(1, train_n);
  }
  model->module().zero_grad();
  model->forward_backward(slice, batch_rng);

  const bool compressing =
      core::parse_spec(cfg.grace.compressor_spec).name != "none";
  const bool allreduce_mode =
      grace.compressor().comm_mode() == core::CommMode::Allreduce;
  r.optimizer_s =
      TimeModel::optimizer_seconds(model->module().num_parameters());

  // Submit every bucket through the real pipeline; from each payload take
  // the measured codec costs, the logical wire size, the physical blob
  // size, and the exact per-round transport volume under this topology.
  comm::WireVolume iter_vol;
  std::vector<core::ExchangeStats> bucket_stats(n_buckets);
  for (size_t b = 0; b < n_buckets; ++b) {
    core::ExchangeHandle h = sched.submit_bucket(grace, b, /*instrument=*/true);
    const uint64_t wire = h.stats.wire_bytes;
    const int64_t numel = sched.buckets()[b].numel;
    const uint64_t dense_bytes = static_cast<uint64_t>(numel) * 4;

    // One measured decompression of this rank's own payload; the per-rank
    // count depends on the dataflow. Allgather: every rank decompresses
    // all n payloads. Allreduce: one decompression of the sum. PS: the
    // serving shard decompresses all n uploads — the codec bottleneck rank.
    const double t0 = now_seconds();
    Tensor reconstructed = grace.compressor().decompress(h.payload);
    const double one_decompress = now_seconds() - t0;
    (void)reconstructed;

    // The bucket's stats as a thread-backed rank would report them:
    // measured compression, modeled comm, dataflow-scaled decompression.
    core::ExchangeStats& s = bucket_stats[b];
    s = h.stats;
    if (kind == comm::TopologyKind::ParameterServer) {
      const Tensor blob = core::serialize(h.payload);
      s.comm_seconds = topo.push_pull_seconds(
          wire * static_cast<uint64_t>(n), dense_bytes);
      iter_vol += topo.push_pull_volume(blob.size_bytes(), dense_bytes);
      s.decompress_seconds = one_decompress * n;
    } else if (allreduce_mode) {
      s.comm_seconds = topo.allreduce_seconds(wire);
      for (const Tensor& part : h.payload.parts) {
        iter_vol += topo.allreduce_volume(part.numel());
      }
      s.decompress_seconds = one_decompress;
    } else {
      const Tensor blob = core::serialize(h.payload);
      s.comm_seconds =
          topo.allgather_seconds(wire, wire * static_cast<uint64_t>(n - 1));
      iter_vol += topo.allgather_volume(blob.size_bytes());
      s.decompress_seconds = one_decompress * n;
    }
  }

  // The probe rank is priced by train()'s own per-rank pricer
  // (sim/scheduler.h) at the slowest member's compute multiplier — the
  // rank every collective waits for — and charge_iteration folds it under
  // the run's accounting.
  RankPrice probe;
  price_rank(bucket_stats, sched.buckets(),
             iteration_clock(cfg.time, model->flops_per_sample(),
                             cfg.batch_per_worker, compressing),
             worst_compute, /*stall_s=*/0.0, probe);
  r.compute_s = probe.costs.compute_s;
  r.compress_s = probe.costs.compress_s;
  r.comm_s = probe.costs.comm_s;
  r.decompress_s = probe.costs.decompress_s;
  r.wire_bytes_per_iter = probe.total.wire_bytes;
  const IterationCharge charge =
      charge_iteration(std::span<const RankCosts>(&probe.costs, 1),
                       r.optimizer_s, cfg.time.overlap);
  r.iteration_s = charge.iteration_s;
  r.additive_iteration_s = charge.additive_s;
  r.overlap_saved_s = charge.additive_s - charge.iteration_s;

  const auto rounds =
      static_cast<uint64_t>(cfg.epochs) * static_cast<uint64_t>(r.iters_per_epoch);
  comm::WireVolume total = iter_vol * rounds;
  if (cfg.check_sync) {
    // The thread-backed trainer's per-epoch replica-sync check allreduces
    // one float over the flat ring regardless of topology; its traffic is
    // part of the World counters, so it is part of the closed form too.
    total += comm::ring_allreduce_volume(n, 1) *
             static_cast<uint64_t>(cfg.epochs);
  }
  r.comm_messages = total.messages;
  r.comm_payload_bytes = total.bytes;

  r.total_sim_seconds = r.iteration_s * static_cast<double>(rounds);
  r.throughput = r.iteration_s > 0.0
                     ? static_cast<double>(global_batch) / r.iteration_s
                     : 0.0;
  return r;
}

std::string scale_result_json(const ScaleResult& r) {
  using util::json::Number;
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"model\":";
  util::json::append_escaped(os, r.model);
  os << ",\"compressor\":";
  util::json::append_escaped(os, r.compressor);
  os << ",\"topology\":";
  util::json::append_escaped(os, r.topology);
  os << ",\"fleet\":";
  util::json::append_escaped(os, r.fleet);
  os << ",\"fleet_max_compute_scale\":" << Number{r.fleet_max_compute_scale};
  os << ",\"n_workers\":" << r.n_workers;
  os << ",\"epochs\":" << r.epochs;
  os << ",\"iters_per_epoch\":" << r.iters_per_epoch;
  os << ",\"buckets_per_iter\":" << r.buckets_per_iter;
  os << ",\"phases\":{";
  os << "\"compute\":" << Number{r.compute_s}
     << ",\"compress\":" << Number{r.compress_s}
     << ",\"comm\":" << Number{r.comm_s}
     << ",\"decompress\":" << Number{r.decompress_s}
     << ",\"optimizer\":" << Number{r.optimizer_s} << '}';
  os << ",\"iteration_seconds\":" << Number{r.iteration_s};
  os << ",\"additive_iteration_seconds\":" << Number{r.additive_iteration_s};
  os << ",\"overlap_saved_seconds\":" << Number{r.overlap_saved_s};
  os << ",\"total_sim_seconds\":" << Number{r.total_sim_seconds};
  os << ",\"throughput\":" << Number{r.throughput};
  os << ",\"wire_bytes_per_iter\":" << r.wire_bytes_per_iter;
  os << ",\"comm_messages\":" << r.comm_messages;
  os << ",\"comm_payload_bytes\":" << r.comm_payload_bytes;
  os << '}';
  return os.str();
}

}  // namespace grace::sim
