// GraceWorker: the Algorithm-1 pipeline across real worker threads —
// aggregation semantics, error-feedback plumbing, stats accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "core/grace_world.h"
#include "core/registry.h"
#include "tensor/ops.h"

namespace grace::core {
namespace {

// Runs fn(rank, worker) on n threads with one GraceWorker per rank.
std::vector<Tensor> exchange_on_ranks(const GraceConfig& cfg, int n,
                                      const std::vector<Tensor>& grads,
                                      ExchangeStats* stats0 = nullptr) {
  comm::World world(n);
  comm::NetworkModel net;
  net.n_workers = n;
  std::vector<Tensor> results(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      GraceWorker worker(cfg, world.comm(rank), net, static_cast<uint64_t>(rank) + 1);
      ExchangeStats stats;
      results[static_cast<size_t>(rank)] = worker.wait(
          worker.submit(Tensor(grads[static_cast<size_t>(rank)]), "g",
                        /*instrument=*/true),
          &stats);
      if (rank == 0 && stats0) *stats0 = stats;
    });
  }
  for (auto& t : threads) t.join();
  return results;
}

TEST(GraceWorker, BaselineAllreduceComputesExactMean) {
  GraceConfig cfg;
  cfg.compressor_spec = "none";
  const int n = 4;
  std::vector<Tensor> grads;
  for (int r = 0; r < n; ++r) {
    grads.push_back(Tensor::full(Shape{{6}}, static_cast<float>(r + 1)));
  }
  auto results = exchange_on_ranks(cfg, n, grads);
  for (const auto& res : results) {
    for (float v : res.f32()) EXPECT_FLOAT_EQ(v, 2.5f);  // mean of 1..4
  }
}

// Bit patterns, so a tensor compares exactly.
std::vector<uint32_t> bits_of(const Tensor& t) {
  std::vector<uint32_t> out(static_cast<size_t>(t.numel()));
  if (!out.empty()) std::memcpy(out.data(), t.bytes().data(), t.size_bytes());
  return out;
}

TEST(GraceWorker, BaselineExchangeIsTheRingSumScaled) {
  // The none exchange rings each payload's own part in place and hands it
  // back through decompress_owned. On the flat ring and on racks of 2 and
  // 3, every rank's result must be, bit for bit, the collective's sum of
  // copies of the gradients scaled by 1/n. 1001 elements split unevenly
  // over 2, 3 and 4 ranks.
  constexpr int64_t kNumel = 1001;
  for (int n = 1; n <= 4; ++n) {
    for (int rack : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " rack=" << rack);
      GraceConfig cfg;
      cfg.compressor_spec = "none";
      if (rack > 1) {
        cfg.topology.kind = comm::TopologyKind::Hierarchical;
        cfg.topology.ranks_per_rack = rack;
      }
      Rng rng(static_cast<uint64_t>(10 * n + rack));
      std::vector<Tensor> grads;
      for (int r = 0; r < n; ++r) {
        Tensor g(DType::F32, Shape{{kNumel}});
        rng.fill_normal(g.f32(), 0.0f, 1.0f);
        grads.push_back(std::move(g));
      }
      const std::vector<Tensor> results = exchange_on_ranks(cfg, n, grads);

      std::vector<Tensor> want = grads;
      comm::World world(n);
      std::vector<std::thread> threads;
      for (int r = 0; r < n; ++r) {
        threads.emplace_back([&, r] {
          comm::Comm comm = world.comm(r);
          comm::hierarchical_allreduce_sum(
              comm, want[static_cast<size_t>(r)].f32(), rack);
        });
      }
      for (auto& t : threads) t.join();
      for (int r = 0; r < n; ++r) {
        const auto i = static_cast<size_t>(r);
        ops::scale(want[i].f32(), 1.0f / static_cast<float>(n));
        EXPECT_EQ(results[i].shape(), grads[i].shape()) << "rank " << r;
        EXPECT_EQ(bits_of(results[i]), bits_of(want[i])) << "rank " << r;
      }
    }
  }
}

TEST(GraceWorker, NoneConsumingDecompressHandsBackThePart) {
  const auto q = make_compressor("none");
  Rng rng(2);
  Tensor g(DType::F32, Shape{{3, 5}});
  rng.fill_normal(g.f32(), 0.0f, 1.0f);
  CompressedTensor ct = q->compress(g, "g", rng);
  const float* const storage = ct.parts[0].f32().data();
  const Tensor out = q->decompress_owned(std::move(ct));
  EXPECT_EQ(out.f32().data(), storage);  // the part's own storage
  EXPECT_EQ(out.shape(), g.shape());
  EXPECT_EQ(bits_of(out), bits_of(g));

  // A part of the wrong size or dtype, or none at all, throws as
  // decompress does.
  const std::vector<std::vector<Tensor>> lying = {
      {Tensor::zeros(Shape{{14}})},
      {Tensor::zeros(Shape{{16}})},
      {Tensor(DType::I32, Shape{{15}})},
      {}};
  for (const std::vector<Tensor>& parts : lying) {
    CompressedTensor bad = q->compress(g, "g", rng);
    bad.parts = parts;
    EXPECT_THROW(q->decompress(bad), std::runtime_error);
    EXPECT_THROW(q->decompress_owned(std::move(bad)), std::runtime_error);
  }
}

TEST(GraceWorker, AllgatherPathAgreesAcrossRanks) {
  GraceConfig cfg;
  cfg.compressor_spec = "topk(0.5)";
  const int n = 3;
  Rng rng(3);
  std::vector<Tensor> grads;
  for (int r = 0; r < n; ++r) {
    Tensor g(DType::F32, Shape{{32}});
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    grads.push_back(std::move(g));
  }
  auto results = exchange_on_ranks(cfg, n, grads);
  for (int r = 1; r < n; ++r) {
    for (int64_t i = 0; i < 32; ++i) {
      ASSERT_EQ(results[0].f32()[static_cast<size_t>(i)],
                results[static_cast<size_t>(r)].f32()[static_cast<size_t>(i)])
          << "rank " << r;
    }
  }
}

TEST(GraceWorker, TopkAggregateIsMeanOfSparseReconstructions) {
  GraceConfig cfg;
  cfg.compressor_spec = "topk(0.25)";
  cfg.error_feedback = false;
  const int n = 2;
  // Rank 0: spike at index 0; rank 1: spike at index 3.
  Tensor g0 = Tensor::zeros(Shape{{4}});
  g0.f32()[0] = 8.0f;
  Tensor g1 = Tensor::zeros(Shape{{4}});
  g1.f32()[3] = -4.0f;
  auto results = exchange_on_ranks(cfg, n, {g0, g1});
  EXPECT_FLOAT_EQ(results[0].f32()[0], 4.0f);   // 8/2
  EXPECT_FLOAT_EQ(results[0].f32()[3], -2.0f);  // -4/2
  EXPECT_FLOAT_EQ(results[0].f32()[1], 0.0f);
}

TEST(GraceWorker, StatsAccounting) {
  GraceConfig cfg;
  cfg.compressor_spec = "topk(0.25)";
  const int n = 2;
  Rng rng(4);
  std::vector<Tensor> grads;
  for (int r = 0; r < n; ++r) {
    Tensor g(DType::F32, Shape{{100}});
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    grads.push_back(std::move(g));
  }
  ExchangeStats stats;
  exchange_on_ranks(cfg, n, grads, &stats);
  EXPECT_EQ(stats.wire_bytes, 25u * 8);  // 25 values + 25 indices
  EXPECT_GT(stats.comm_seconds, 0.0);
  EXPECT_GE(stats.compress_seconds, 0.0);
}

TEST(GraceWorker, WireCodecShrinksWireWithoutChangingAggregate) {
  const int n = 2;
  const int64_t d = 4096;
  Rng rng(9);
  std::vector<Tensor> grads;
  for (int r = 0; r < n; ++r) {
    Tensor g(DType::F32, Shape{{d}});
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    grads.push_back(std::move(g));
  }

  GraceConfig raw_cfg;
  raw_cfg.compressor_spec = "topk(0.05)";
  ExchangeStats raw_stats;
  auto raw_results = exchange_on_ranks(raw_cfg, n, grads, &raw_stats);

  GraceConfig rice_cfg = raw_cfg;
  rice_cfg.wire_codec = WireCodec::Rice;
  ExchangeStats rice_stats;
  auto rice_results = exchange_on_ranks(rice_cfg, n, grads, &rice_stats);

  // Lossless stage: the aggregated tensors are bit-identical...
  for (int r = 0; r < n; ++r) {
    for (int64_t i = 0; i < d; ++i) {
      ASSERT_EQ(raw_results[static_cast<size_t>(r)].f32()[static_cast<size_t>(i)],
                rice_results[static_cast<size_t>(r)].f32()[static_cast<size_t>(i)])
          << "rank " << r << " i=" << i;
    }
  }
  // ...but the wire (and thus the modeled link time) got smaller.
  EXPECT_LT(rice_stats.wire_bytes, raw_stats.wire_bytes);
  EXPECT_LT(rice_stats.comm_seconds, raw_stats.comm_seconds);
}

TEST(GraceWorker, WireCodecLeavesQuantizersUntouched) {
  // Quantizers tag no index parts; the stage must be a no-op for them.
  const int n = 2;
  Rng rng(12);
  std::vector<Tensor> grads;
  for (int r = 0; r < n; ++r) {
    Tensor g(DType::F32, Shape{{64}});
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    grads.push_back(std::move(g));
  }
  GraceConfig raw_cfg;
  raw_cfg.compressor_spec = "signsgd";
  ExchangeStats raw_stats;
  exchange_on_ranks(raw_cfg, n, grads, &raw_stats);
  GraceConfig rice_cfg = raw_cfg;
  rice_cfg.wire_codec = WireCodec::Rice;
  ExchangeStats rice_stats;
  exchange_on_ranks(rice_cfg, n, grads, &rice_stats);
  EXPECT_EQ(rice_stats.wire_bytes, raw_stats.wire_bytes);
}

TEST(GraceWorker, ErrorFeedbackDefaultFollowsTableOne) {
  comm::World world(1);
  comm::NetworkModel net;
  net.n_workers = 1;
  auto build = [&](const std::string& spec) {
    GraceConfig cfg;
    cfg.compressor_spec = spec;
    return GraceWorker(cfg, world.comm(0), net, 1).error_feedback_enabled();
  };
  EXPECT_FALSE(build("none"));
  EXPECT_FALSE(build("signsgd"));
  EXPECT_FALSE(build("qsgd(64)"));
  EXPECT_FALSE(build("terngrad"));
  EXPECT_TRUE(build("topk(0.01)"));
  EXPECT_TRUE(build("randomk(0.01)"));
  EXPECT_TRUE(build("efsignsgd"));
  EXPECT_TRUE(build("powersgd(4)"));
}

TEST(GraceWorker, ErrorFeedbackOverride) {
  comm::World world(1);
  comm::NetworkModel net;
  net.n_workers = 1;
  GraceConfig cfg;
  cfg.compressor_spec = "topk(0.01)";
  cfg.error_feedback = false;
  EXPECT_FALSE(GraceWorker(cfg, world.comm(0), net, 1).error_feedback_enabled());
  cfg.compressor_spec = "signsgd";
  cfg.error_feedback = true;
  EXPECT_TRUE(GraceWorker(cfg, world.comm(0), net, 1).error_feedback_enabled());
}

TEST(GraceWorker, ErrorFeedbackRecoversDroppedMassOverTime) {
  // Single worker, heavy sparsification with EF: the cumulative transmitted
  // gradient must approach the cumulative true gradient.
  comm::World world(1);
  comm::NetworkModel net;
  net.n_workers = 1;
  GraceConfig cfg;
  cfg.compressor_spec = "topk(0.1)";
  cfg.error_feedback = true;
  GraceWorker worker(cfg, world.comm(0), net, 1);

  Rng rng(5);
  Tensor g(DType::F32, Shape{{50}});
  rng.fill_normal(g.f32(), 1.0f, 0.2f);  // all-positive mass
  Tensor shipped = Tensor::zeros(Shape{{50}});
  const int rounds = 60;
  for (int k = 0; k < rounds; ++k) {
    Tensor agg = worker.wait(worker.submit(Tensor(g), "g"));
    ops::add(shipped.f32(), agg.f32());
  }
  // Without EF only 10% of coordinates would ever ship; with EF every
  // coordinate's cumulative mass approaches rounds * g[i].
  for (int64_t i = 0; i < 50; ++i) {
    const float expect = static_cast<float>(rounds) * g.f32()[static_cast<size_t>(i)];
    EXPECT_NEAR(shipped.f32()[static_cast<size_t>(i)], expect, 0.35f * expect);
  }
}

TEST(GraceWorker, WithoutErrorFeedbackMassIsLost) {
  comm::World world(1);
  comm::NetworkModel net;
  net.n_workers = 1;
  GraceConfig cfg;
  cfg.compressor_spec = "topk(0.1)";
  cfg.error_feedback = false;
  GraceWorker worker(cfg, world.comm(0), net, 1);
  Tensor g(DType::F32, Shape{{50}});
  Rng rng(6);
  rng.fill_normal(g.f32(), 1.0f, 0.2f);
  Tensor shipped = Tensor::zeros(Shape{{50}});
  for (int k = 0; k < 20; ++k) {
    ops::add(shipped.f32(), worker.wait(worker.submit(Tensor(g), "g")).f32());
  }
  EXPECT_EQ(ops::count_nonzero(shipped.f32()), 5);  // same top-5 every round
}

TEST(ExchangeStats, Accumulate) {
  ExchangeStats a{10, 1.0, 2.0, 3.0};
  ExchangeStats b{5, 0.5, 0.5, 0.5};
  a += b;
  EXPECT_EQ(a.wire_bytes, 15u);
  EXPECT_DOUBLE_EQ(a.compress_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.decompress_seconds, 2.5);
  EXPECT_DOUBLE_EQ(a.comm_seconds, 3.5);
}

}  // namespace
}  // namespace grace::core
