// Large-scale simulated worlds (sim/simworld.h): exact transport-count and
// per-iteration seconds equivalence with the thread-backed trainer on small
// worlds, fleet-scale smoke coverage, and the JSON export.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "comm/topology.h"
#include "sim/critical_path.h"
#include "sim/simworld.h"
#include "sim/tasks.h"
#include "sim/trainer.h"
#include "util/json.h"

namespace grace::sim {
namespace {

TrainConfig small_config(const Benchmark& b, int n) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = n;
  cfg.net.n_workers = n;  // price and count the same world we run
  cfg.epochs = 2;
  return cfg;
}

// The acceptance bar for the simulated world: for a world small enough to
// run both modes, the closed-form message/byte totals must equal the
// thread-backed World's atomic counters EXACTLY — same config, every
// topology, dense and sparse payloads. Any drift here means the cost model
// is pricing traffic the transport never carries (or missing some).
TEST(SimWorld, TransportTotalsMatchThreadWorldExactly) {
  Benchmark b = make_cnn_classification(0.1);
  struct Case {
    comm::TopologyKind kind;
    int ps_shards;
    int ranks_per_rack;
  };
  const Case cases[] = {
      {comm::TopologyKind::Ring, 1, 8},
      {comm::TopologyKind::ParameterServer, 2, 8},
      {comm::TopologyKind::Hierarchical, 1, 2},
  };
  for (const char* spec : {"none", "topk(0.1)"}) {
    for (const Case& c : cases) {
      TrainConfig cfg = small_config(b, 4);
      cfg.grace.compressor_spec = spec;
      cfg.grace.topology.kind = c.kind;
      cfg.grace.topology.ps_shards = c.ps_shards;
      cfg.grace.topology.ranks_per_rack = c.ranks_per_rack;

      RunResult real = train(b.factory, cfg);
      ScaleResult sim = simulate_scale(b.factory, cfg);

      SCOPED_TRACE(std::string(spec) + " / " + sim.topology);
      EXPECT_EQ(sim.comm_messages, real.comm_messages);
      EXPECT_EQ(sim.comm_payload_bytes, real.comm_payload_bytes);
      // The schedules must agree too, or the totals match by accident.
      EXPECT_EQ(sim.buckets_per_iter, real.buckets_per_iter);
      EXPECT_EQ(sim.epochs * sim.iters_per_epoch,
                static_cast<int64_t>(real.epochs.size()) *
                    (real.samples_per_epoch /
                     (cfg.n_workers * cfg.batch_per_worker)));
      EXPECT_EQ(sim.topology, real.topology);
    }
  }
}

// The seconds half of the contract: simulate_scale prices its probe rank
// with train()'s own pricer (sim/scheduler.h), so with the codec clock
// zeroed (the only measured input), a uniform fleet and no faults, every
// iteration the thread-backed trainer charged equals the simulated
// iteration bitwise — under both accountings and across the fusion
// endpoints. Compared per iteration: the run mean divides a sum.
TEST(SimWorld, TrainChargesEveryIterationLikeTheSimulatedWorld) {
  Benchmark b = make_cnn_classification(0.1);
  for (const char* spec : {"none", "topk(0.1)", "qsgd(64)"}) {
    for (const bool overlap : {false, true}) {
      for (const size_t fusion : {size_t{0}, size_t{4096}, SIZE_MAX}) {
        TrainConfig cfg = small_config(b, 4);
        cfg.grace.compressor_spec = spec;
        cfg.time.overlap = overlap;
        cfg.time.compression_time_scale = 0.0;
        cfg.fusion_bytes = fusion;
        CriticalPathCollector collector(cfg.n_workers);
        cfg.critical_path = &collector;

        const RunResult real = train(b.factory, cfg);
        const ScaleResult sim = simulate_scale(b.factory, cfg);

        SCOPED_TRACE(std::string(spec) + (overlap ? " overlap" : " additive") +
                     " fusion=" + std::to_string(fusion));
        const auto& per_iter = real.critical_path.per_iteration;
        ASSERT_FALSE(per_iter.empty());
        for (size_t i = 0; i < per_iter.size(); ++i) {
          ASSERT_EQ(per_iter[i].iteration_s, sim.iteration_s)
              << "iteration " << i;
        }
      }
    }
  }
}

TEST(SimWorld, RaggedHierarchyStaysExact) {
  // 5 ranks over rack size 2: one full rack short — the raggedest shape the
  // two-level collectives support.
  Benchmark b = make_cnn_classification(0.1);
  TrainConfig cfg = small_config(b, 5);
  cfg.grace.compressor_spec = "topk(0.25)";
  cfg.grace.topology.kind = comm::TopologyKind::Hierarchical;
  cfg.grace.topology.ranks_per_rack = 2;
  RunResult real = train(b.factory, cfg);
  ScaleResult sim = simulate_scale(b.factory, cfg);
  EXPECT_EQ(sim.comm_messages, real.comm_messages);
  EXPECT_EQ(sim.comm_payload_bytes, real.comm_payload_bytes);
}

TEST(SimWorld, MixedFleetKeepsTransportTotalsExact) {
  // Heterogeneous 5-rank fleet over the ragged two-rack hierarchy: link
  // and compute multipliers reprice seconds, but the wire-volume closed
  // forms are speed-independent — transport totals must still equal the
  // thread-backed World's counters exactly.
  Benchmark b = make_cnn_classification(0.1);
  TrainConfig cfg = small_config(b, 5);
  cfg.grace.compressor_spec = "topk(0.25)";
  cfg.grace.topology.kind = comm::TopologyKind::Hierarchical;
  cfg.grace.topology.ranks_per_rack = 2;
  std::vector<comm::LinkProfile> lp(5);
  lp[1].bandwidth_scale = 0.5;  // one throttled link
  lp[3].compute_scale = 3.0;    // one straggling device
  lp[4].latency_scale = 5.0;    // one long-haul member
  cfg.fleet = comm::FleetProfile(std::move(lp), "mixed-rack");
  ASSERT_FALSE(cfg.fleet.uniform());

  RunResult real = train(b.factory, cfg);
  ScaleResult sim = simulate_scale(b.factory, cfg);
  EXPECT_EQ(sim.comm_messages, real.comm_messages);
  EXPECT_EQ(sim.comm_payload_bytes, real.comm_payload_bytes);
  EXPECT_EQ(sim.fleet, "mixed-rack");
  EXPECT_EQ(sim.fleet_max_compute_scale, 3.0);

  // Straggler pricing: the same config with a uniform fleet must simulate
  // a faster iteration (and identical transport totals, again).
  TrainConfig uni = cfg;
  uni.fleet = comm::FleetProfile();
  ScaleResult fast = simulate_scale(b.factory, uni);
  EXPECT_GT(sim.iteration_s, fast.iteration_s);
  EXPECT_GT(sim.compute_s, fast.compute_s);
  EXPECT_EQ(sim.comm_messages, fast.comm_messages);
  EXPECT_EQ(sim.comm_payload_bytes, fast.comm_payload_bytes);
  EXPECT_EQ(sim.wire_bytes_per_iter, fast.wire_bytes_per_iter);
}

TEST(SimWorld, SimulatesHundredsOfRanksWithoutThreads) {
  // 256 ranks — far beyond what the thread-backed world can host — must
  // run in the quick tier: the cost is one replica's forward/backward, not
  // 256 of them.
  Benchmark b = make_cnn_classification(0.1);
  TrainConfig cfg = default_config(b);
  cfg.n_workers = 256;
  cfg.epochs = 2;
  cfg.grace.compressor_spec = "topk(0.01)";
  cfg.grace.topology.kind = comm::TopologyKind::Hierarchical;
  cfg.grace.topology.ranks_per_rack = 16;
  ScaleResult r = simulate_scale(b.factory, cfg);
  EXPECT_EQ(r.n_workers, 256);
  EXPECT_GT(r.buckets_per_iter, 0);
  EXPECT_GT(r.iteration_s, 0.0);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.comm_messages, 0u);
  EXPECT_GT(r.comm_payload_bytes, 0u);
  EXPECT_GT(r.wire_bytes_per_iter, 0u);
}

TEST(SimWorld, ThousandRankSweepIsCheap) {
  // The bench_scale 1024-rank cell: all three topologies at four-digit
  // world sizes, still milliseconds (the closed forms are O(buckets)).
  Benchmark b = make_cnn_classification(0.1);
  for (auto kind : {comm::TopologyKind::Ring, comm::TopologyKind::ParameterServer,
                    comm::TopologyKind::Hierarchical}) {
    TrainConfig cfg = default_config(b);
    cfg.n_workers = 1024;
    cfg.epochs = 1;
    cfg.grace.compressor_spec = "qsgd(64)";
    cfg.grace.topology.kind = kind;
    cfg.grace.topology.ps_shards = 16;
    cfg.grace.topology.ranks_per_rack = 16;
    ScaleResult r = simulate_scale(b.factory, cfg);
    EXPECT_EQ(r.n_workers, 1024);
    EXPECT_GT(r.total_sim_seconds, 0.0);
  }
}

TEST(SimWorld, OverlapNeverExceedsAdditive) {
  Benchmark b = make_cnn_classification(0.1);
  TrainConfig cfg = default_config(b);
  cfg.n_workers = 64;
  cfg.epochs = 1;
  cfg.fusion_bytes = size_t{20} * 1024;
  cfg.grace.compressor_spec = "topk(0.1)";
  cfg.time.overlap = true;
  ScaleResult r = simulate_scale(b.factory, cfg);
  EXPECT_LE(r.iteration_s, r.additive_iteration_s);
  EXPECT_GE(r.overlap_saved_s, 0.0);
  cfg.time.overlap = false;
  ScaleResult add = simulate_scale(b.factory, cfg);
  EXPECT_DOUBLE_EQ(add.iteration_s, add.additive_iteration_s);
  EXPECT_DOUBLE_EQ(add.overlap_saved_s, 0.0);
}

TEST(SimWorld, MoreRanksMoveMoreBytes) {
  // Topology-independent sanity: growing the fleet grows the total
  // transport volume under every topology.
  Benchmark b = make_cnn_classification(0.1);
  for (auto kind : {comm::TopologyKind::Ring, comm::TopologyKind::ParameterServer,
                    comm::TopologyKind::Hierarchical}) {
    TrainConfig cfg = default_config(b);
    cfg.epochs = 1;
    cfg.grace.compressor_spec = "signsgd";
    cfg.grace.topology.kind = kind;
    cfg.n_workers = 32;
    const ScaleResult small = simulate_scale(b.factory, cfg);
    cfg.n_workers = 128;
    const ScaleResult big = simulate_scale(b.factory, cfg);
    EXPECT_GT(big.comm_payload_bytes, small.comm_payload_bytes)
        << comm::topology_name(kind);
    EXPECT_GT(big.comm_messages, small.comm_messages)
        << comm::topology_name(kind);
  }
}

TEST(SimWorld, RejectsInvalidNetworkAndTopology) {
  Benchmark b = make_cnn_classification(0.1);
  TrainConfig cfg = default_config(b);
  cfg.n_workers = 8;
  cfg.net.bandwidth_gbps = 0.0;  // would divide by zero downstream
  EXPECT_THROW(simulate_scale(b.factory, cfg), std::invalid_argument);
  cfg = default_config(b);
  cfg.n_workers = 8;
  cfg.grace.topology.kind = comm::TopologyKind::ParameterServer;
  cfg.grace.topology.ps_shards = 9;  // more shards than ranks
  EXPECT_THROW(simulate_scale(b.factory, cfg), std::invalid_argument);
}

TEST(SimWorld, JsonExportParsesAndCarriesTheSchema) {
  Benchmark b = make_cnn_classification(0.1);
  TrainConfig cfg = default_config(b);
  cfg.n_workers = 64;
  cfg.epochs = 1;
  cfg.grace.topology.kind = comm::TopologyKind::Hierarchical;
  cfg.grace.topology.ranks_per_rack = 8;
  const ScaleResult r = simulate_scale(b.factory, cfg);
  const std::string json = scale_result_json(r);
  const util::json::Value doc = util::json::parse(json);
  for (const char* key :
       {"model", "compressor", "topology", "n_workers", "iters_per_epoch",
        "buckets_per_iter", "phases", "iteration_seconds",
        "additive_iteration_seconds", "total_sim_seconds", "throughput",
        "wire_bytes_per_iter", "comm_messages", "comm_payload_bytes"}) {
    EXPECT_NO_THROW(doc.at(key)) << key;
  }
}

}  // namespace
}  // namespace grace::sim
