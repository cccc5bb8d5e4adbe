// Parameter-server topology (§IV-A): result equivalence with the
// collective path, end-to-end training, and index-coding helpers.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "core/grace_world.h"
#include "core/index_coding.h"
#include "sim/tasks.h"
#include "tensor/ops.h"
#include "util/simd.h"

namespace grace::core {
namespace {

std::vector<Tensor> run_exchange(const GraceConfig& cfg, int n,
                                 const std::vector<Tensor>& grads) {
  comm::World world(n);
  comm::NetworkModel net;
  net.n_workers = n;
  std::vector<Tensor> results(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      GraceWorker worker(cfg, world.comm(rank), net, static_cast<uint64_t>(rank) + 1);
      results[static_cast<size_t>(rank)] =
          worker.wait(worker.submit(Tensor(grads[static_cast<size_t>(rank)]), "g"));
    });
  }
  for (auto& t : threads) t.join();
  return results;
}

TEST(ParameterServer, MatchesCollectiveAggregation) {
  const int n = 4;
  Rng rng(5);
  std::vector<Tensor> grads;
  for (int r = 0; r < n; ++r) {
    Tensor g(DType::F32, Shape{{40}});
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    grads.push_back(std::move(g));
  }
  for (const char* spec : {"none", "topk(0.2)", "qsgd(16)"}) {
    GraceConfig collective;
    collective.compressor_spec = spec;
    GraceConfig ps = collective;
    ps.topology.kind = comm::TopologyKind::ParameterServer;
    auto a = run_exchange(collective, n, grads);
    auto b = run_exchange(ps, n, grads);
    for (int r = 0; r < n; ++r) {
      for (int64_t i = 0; i < 40; ++i) {
        // qsgd is randomized but both runs use the same per-rank seeds, so
        // payloads are identical. Tolerance (not exact equality) because
        // ring-allreduce sums chunks in a different order than the PS's
        // sequential rank-order mean.
        ASSERT_NEAR(a[static_cast<size_t>(r)].f32()[static_cast<size_t>(i)],
                    b[static_cast<size_t>(r)].f32()[static_cast<size_t>(i)],
                    1e-5f)
            << spec << " rank " << r;
      }
    }
  }
}

TEST(ParameterServer, QsgdFoldIsBitEqualAcrossPathsAndLevels) {
  // Allgather and the parameter server run one fold in rank order, so
  // their qsgd means are bit-equal, and the decode kernel keeps them so
  // at every SIMD level.
  struct LevelReset {
    ~LevelReset() { util::simd::clear_level_for_testing(); }
  } reset;
  const int n = 4;
  Rng rng(8);
  std::vector<Tensor> grads;
  for (int r = 0; r < n; ++r) {
    Tensor g(DType::F32, Shape{{1021}});
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    grads.push_back(std::move(g));
  }
  GraceConfig collective;
  collective.compressor_spec = "qsgd(64)";
  GraceConfig ps = collective;
  ps.topology.kind = comm::TopologyKind::ParameterServer;
  auto same = [](const Tensor& a, const Tensor& b) {
    return a.size_bytes() == b.size_bytes() &&
           std::memcmp(a.f32().data(), b.f32().data(), a.size_bytes()) == 0;
  };
  std::vector<Tensor> scalar_means;
  for (util::simd::Level level :
       {util::simd::Level::Scalar, util::simd::detected_level()}) {
    util::simd::set_level_for_testing(level);
    const auto a = run_exchange(collective, n, grads);
    const auto b = run_exchange(ps, n, grads);
    if (scalar_means.empty()) scalar_means = a;
    for (size_t r = 0; r < a.size(); ++r) {
      const char* name = util::simd::level_name(level);
      EXPECT_TRUE(same(a[r], b[r])) << name << " rank " << r;
      EXPECT_TRUE(same(a[r], a[0])) << name << " rank " << r;
      EXPECT_TRUE(same(a[r], scalar_means[r])) << name << " rank " << r;
    }
  }
}

TEST(ParameterServer, AllRanksAgree) {
  GraceConfig cfg;
  cfg.compressor_spec = "randomk(0.3)";
  cfg.topology.kind = comm::TopologyKind::ParameterServer;
  Rng rng(6);
  std::vector<Tensor> grads;
  for (int r = 0; r < 3; ++r) {
    Tensor g(DType::F32, Shape{{25}});
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    grads.push_back(std::move(g));
  }
  auto results = run_exchange(cfg, 3, grads);
  for (int r = 1; r < 3; ++r) {
    for (int64_t i = 0; i < 25; ++i) {
      ASSERT_EQ(results[0].f32()[static_cast<size_t>(i)],
                results[static_cast<size_t>(r)].f32()[static_cast<size_t>(i)]);
    }
  }
}

TEST(ParameterServer, TrainsEndToEnd) {
  auto b = sim::make_cnn_classification(0.1);
  sim::TrainConfig cfg = sim::default_config(b);
  cfg.n_workers = 3;
  cfg.net.n_workers = 3;
  cfg.epochs = 2;
  cfg.grace.compressor_spec = "topk(0.1)";
  cfg.grace.topology.kind = comm::TopologyKind::ParameterServer;
  sim::RunResult run = sim::train(b.factory, cfg);
  EXPECT_TRUE(run.replicas_in_sync);
  EXPECT_GT(run.throughput, 0.0);
}

TEST(Hierarchical, CrashRebindReclampsRaggedRack) {
  // A crash inside a hierarchical world whose rack spans every rank: the
  // survivor rebind must re-clamp ranks_per_rack to the shrunken world (5
  // -> 4) so the two-level cost model never prices a rack larger than the
  // fleet. The run must finish in sync and replay bit-for-bit.
  auto b = sim::make_cnn_classification(0.1);
  sim::TrainConfig cfg = sim::default_config(b);
  cfg.n_workers = 5;
  cfg.net.n_workers = 5;
  cfg.batch_per_worker = 4;
  cfg.epochs = 3;
  cfg.optimizer.type = optim::OptimizerType::Sgd;
  cfg.optimizer.lr = 0.02;
  cfg.grace.compressor_spec = "topk(0.1)";
  cfg.grace.topology.kind = comm::TopologyKind::Hierarchical;
  cfg.grace.topology.ranks_per_rack = 5;  // one rack covering the world

  faults::FaultSpec spec;
  spec.crash_rank = 4;
  spec.crash_epoch = 1;
  spec.crash_iter = 0;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;

  sim::RunResult run = sim::train(b.factory, cfg);
  EXPECT_EQ(run.faults.crashed_ranks, 1u);
  EXPECT_TRUE(run.replicas_in_sync);
  sim::RunResult again = sim::train(b.factory, cfg);
  EXPECT_EQ(run.parameters_crc32, again.parameters_crc32);
  EXPECT_EQ(run.final_parameters, again.final_parameters);
}

TEST(Hierarchical, RackOfOneRunsTheRing) {
  // One rank per rack is the flat ring, message for message: same
  // parameters, same transport counters, clean, under a crash and under
  // churn. It is priced as the ring too: with the measured codec clock
  // zeroed, the simulated iteration is bit-identical.
  auto b = sim::make_cnn_classification(0.1);
  faults::FaultSpec crash;
  crash.crash_rank = 3;
  crash.crash_epoch = 1;
  crash.crash_iter = 1;
  faults::FaultSpec churn;
  churn.drop_prob = 0.02;
  churn.churn = {{1, 2, false}, {2, 2, true}};
  const faults::FaultPlan crash_plan(crash), churn_plan(churn);
  for (const char* spec : {"none", "topk(0.1)"}) {
    for (const faults::FaultPlan* plan :
         {static_cast<const faults::FaultPlan*>(nullptr), &crash_plan,
          &churn_plan}) {
      SCOPED_TRACE(std::string(spec) + (plan == nullptr       ? " clean"
                                        : plan == &crash_plan ? " crash"
                                                              : " churn"));
      sim::TrainConfig cfg = sim::default_config(b);
      cfg.n_workers = 4;
      cfg.net.n_workers = 4;
      cfg.batch_per_worker = 4;
      cfg.epochs = 3;
      cfg.fusion_bytes = 4096;
      cfg.grace.compressor_spec = spec;
      cfg.faults = plan;
      cfg.time.compression_time_scale = 0.0;
      const sim::RunResult ring = sim::train(b.factory, cfg);
      cfg.grace.topology.kind = comm::TopologyKind::Hierarchical;
      cfg.grace.topology.ranks_per_rack = 1;
      const sim::RunResult rack1 = sim::train(b.factory, cfg);
      EXPECT_EQ(rack1.parameters_crc32, ring.parameters_crc32);
      EXPECT_EQ(rack1.comm_messages, ring.comm_messages);
      EXPECT_EQ(rack1.comm_payload_bytes, ring.comm_payload_bytes);
      EXPECT_EQ(rack1.iteration_s, ring.iteration_s);
    }
  }
}

TEST(TopologyModel, KindsShareTheFlatFormulas) {
  // The model holds the one rack-size decision GraceWorker runs its
  // collectives at: ranks_per_rack for Hierarchical, 1 for the other
  // kinds, which ignore the rack knobs. Ring and the parameter server
  // therefore price dense sums and gathers as the rack-of-one hierarchy,
  // bit for bit, and every kind prices push/pull the same way.
  for (int n : {1, 4, 7}) {
    SCOPED_TRACE(n);
    comm::NetworkModel net;
    net.n_workers = n;
    comm::TopologyConfig cfg;
    cfg.ranks_per_rack = 3;
    cfg.cross_rack_gbps = 1.0;
    const comm::TopologyModel ring = comm::make_topology(cfg, net);
    cfg.kind = comm::TopologyKind::ParameterServer;
    const comm::TopologyModel ps = comm::make_topology(cfg, net);
    cfg.kind = comm::TopologyKind::Hierarchical;
    const comm::TopologyModel hier = comm::make_topology(cfg, net);
    cfg.ranks_per_rack = 1;
    cfg.cross_rack_gbps = 0.0;
    const comm::TopologyModel rack1 = comm::make_topology(cfg, net);
    EXPECT_EQ(ring.ranks_per_rack(), 1);
    EXPECT_EQ(ps.ranks_per_rack(), 1);
    EXPECT_EQ(hier.ranks_per_rack(), 3);
    for (uint64_t bytes : {0ull, 1ull, 4096ull, 3000017ull, 987654321ull}) {
      EXPECT_EQ(rack1.allreduce_seconds(bytes), ring.allreduce_seconds(bytes));
      EXPECT_EQ(rack1.allgather_seconds(bytes, 3 * bytes + 5),
                ring.allgather_seconds(bytes, 3 * bytes + 5));
      EXPECT_EQ(ps.allreduce_seconds(bytes), ring.allreduce_seconds(bytes));
      EXPECT_EQ(ps.allreduce_volume(static_cast<int64_t>(bytes)),
                ring.allreduce_volume(static_cast<int64_t>(bytes)));
      EXPECT_EQ(ps.allgather_seconds(bytes, 3 * bytes + 5),
                ring.allgather_seconds(bytes, 3 * bytes + 5));
      EXPECT_EQ(ps.allgather_volume(bytes), ring.allgather_volume(bytes));
      EXPECT_EQ(hier.push_pull_seconds(n * bytes, 2 * bytes + 7),
                ring.push_pull_seconds(n * bytes, 2 * bytes + 7));
      EXPECT_EQ(hier.push_pull_volume(bytes, 2 * bytes + 7),
                ring.push_pull_volume(bytes, 2 * bytes + 7));
    }
  }
}

TEST(ParameterServer, CostModelChargesServerBottleneck) {
  comm::NetworkModel net;
  net.n_workers = 8;
  // Uploads scale the round linearly; downloads scale with n-1 copies.
  const double small = net.parameter_server_seconds(1 << 20, 1 << 10);
  const double big_up = net.parameter_server_seconds(8 << 20, 1 << 10);
  const double big_down = net.parameter_server_seconds(1 << 20, 1 << 20);
  EXPECT_GT(big_up, small);
  EXPECT_GT(big_down, small);
  net.n_workers = 1;
  EXPECT_EQ(net.parameter_server_seconds(1 << 20, 1 << 20), 0.0);
}

// --- Index coding ------------------------------------------------------

TEST(IndexCoding, RiceRoundTrip) {
  for (int64_t n : {0, 1, 7, 2000}) {
    Rng rng(static_cast<uint64_t>(n) + 11);
    auto indices = rng.sample_indices(1 << 20, n);
    Tensor coded = rice_encode_indices(indices);
    EXPECT_EQ(rice_decode_indices(coded, static_cast<int64_t>(indices.size())), indices);
  }
}

TEST(IndexCoding, BeatsRawThirtyTwoBits) {
  // Uniform 1% sparsity over 1M coordinates: mean gap 100 -> rice should
  // land well under 32 bits/index (raw i32).
  Rng rng(3);
  auto indices = rng.sample_indices(1 << 20, 10000);
  const Tensor coded = rice_encode_indices(indices);
  const double rice_bits = static_cast<double>(coded.size_bytes()) * 8.0 /
                           static_cast<double>(indices.size());
  EXPECT_LT(rice_bits, 12.0);  // near-entropy for geometric gaps
}

TEST(IndexCoding, RiceHandlesAdjacentIndices) {
  const std::vector<int32_t> indices{0, 1, 2, 3, 4};
  Tensor coded = rice_encode_indices(indices, 0);
  EXPECT_EQ(rice_decode_indices(coded, 5), indices);
}

}  // namespace
}  // namespace grace::core
