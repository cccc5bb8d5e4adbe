// In-process message passing and collectives, executed by real threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/network_model.h"
#include "comm/topology.h"
#include "faults/injector.h"
#include "tensor/rng.h"

namespace grace::comm {
namespace {

// Runs fn(rank) on n threads and joins.
void run_ranks(World& world, int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) threads.emplace_back(fn, r);
  for (auto& t : threads) t.join();
  (void)world;
}

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox box;
  box.put({0, 1, Tensor::scalar(1.0f)});
  box.put({0, 1, Tensor::scalar(2.0f)});
  box.put({1, 1, Tensor::scalar(3.0f)});
  EXPECT_FLOAT_EQ(box.take(1, 1).payload.item(), 3.0f);  // out of order by src
  EXPECT_FLOAT_EQ(box.take(0, 1).payload.item(), 1.0f);
  EXPECT_FLOAT_EQ(box.take(0, 1).payload.item(), 2.0f);
  EXPECT_FALSE(box.take_for(0, 1, 0.0).has_value());  // queue drained
}

TEST(Mailbox, TagIsolation) {
  Mailbox box;
  box.put({0, 7, Tensor::scalar(7.0f)});
  box.put({0, 8, Tensor::scalar(8.0f)});
  EXPECT_FLOAT_EQ(box.take(0, 8).payload.item(), 8.0f);
  EXPECT_FLOAT_EQ(box.take(0, 7).payload.item(), 7.0f);
}

TEST(Comm, PointToPoint) {
  World world(2);
  run_ranks(world, 2, [&](int rank) {
    auto comm = world.comm(rank);
    if (rank == 0) {
      comm.send(1, Tensor::from(std::vector<float>{1, 2, 3}));
      Tensor back = comm.recv(1);
      EXPECT_FLOAT_EQ(back.f32()[0], 9.0f);
    } else {
      Tensor got = comm.recv(0);
      EXPECT_EQ(got.numel(), 3);
      comm.send(0, Tensor::scalar(9.0f));
    }
  });
}

class AllreduceTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllreduceTest, SumsElementwise) {
  const int n = std::get<0>(GetParam());
  const int64_t size = std::get<1>(GetParam());
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    std::vector<float> data(static_cast<size_t>(size));
    for (int64_t i = 0; i < size; ++i) {
      data[static_cast<size_t>(i)] = static_cast<float>(rank + 1) * static_cast<float>(i);
    }
    allreduce_sum(comm, data);
    const float factor = static_cast<float>(n * (n + 1)) / 2.0f;  // sum of rank+1
    for (int64_t i = 0; i < size; ++i) {
      EXPECT_FLOAT_EQ(data[static_cast<size_t>(i)], factor * static_cast<float>(i))
          << "rank " << rank << " elem " << i;
    }
  });
}

// Sizes below, equal to, and far above the worker count; odd remainders.
INSTANTIATE_TEST_SUITE_P(
    Shapes, AllreduceTest,
    ::testing::Values(std::tuple{2, 1}, std::tuple{2, 10}, std::tuple{3, 2},
                      std::tuple{4, 4}, std::tuple{4, 103}, std::tuple{8, 1},
                      std::tuple{8, 1000}, std::tuple{5, 17}, std::tuple{1, 8}));

TEST(Collectives, AllgatherVariableSizes) {
  const int n = 4;
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    // Each rank contributes rank+1 elements of value rank.
    Tensor mine = Tensor::full(Shape{{rank + 1}}, static_cast<float>(rank));
    auto all = allgather(comm, mine);
    ASSERT_EQ(all.size(), static_cast<size_t>(n));
    for (int peer = 0; peer < n; ++peer) {
      ASSERT_EQ(all[static_cast<size_t>(peer)].numel(), peer + 1);
      for (float v : all[static_cast<size_t>(peer)].f32()) {
        EXPECT_FLOAT_EQ(v, static_cast<float>(peer));
      }
    }
  });
}

TEST(Collectives, AllgatherPreservesDtype) {
  const int n = 2;
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    Tensor mine(DType::U8, Shape{{3}});
    mine.u8()[0] = static_cast<uint8_t>(rank);
    auto all = allgather(comm, mine);
    EXPECT_EQ(all[0].dtype(), DType::U8);
    EXPECT_EQ(all[1].dtype(), DType::U8);
    EXPECT_EQ(all[static_cast<size_t>(rank)].u8()[0], static_cast<uint8_t>(rank));
  });
}

TEST(Collectives, ManySequentialCollectivesStress) {
  const int n = 4;
  World world(n);
  Rng size_rng(99);
  std::vector<int64_t> sizes;
  for (int i = 0; i < 50; ++i) sizes.push_back(1 + size_rng.uniform_int(64));
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    for (size_t i = 0; i < sizes.size(); ++i) {
      std::vector<float> data(static_cast<size_t>(sizes[i]), static_cast<float>(rank));
      allreduce_sum(comm, data, static_cast<int>(i));
      const float expect = static_cast<float>(n * (n - 1)) / 2.0f;
      for (float v : data) ASSERT_FLOAT_EQ(v, expect);
    }
  });
}

TEST(Collectives, AllreduceSmallerThanWorld) {
  // data.size() < n: chunk_range legally produces empty chunks and the ring
  // still sends the zero-size tensors (they carry the step structure).
  const int n = 6;
  const int64_t size = 3;
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    std::vector<float> data(static_cast<size_t>(size),
                            static_cast<float>(rank + 1));
    allreduce_sum(comm, data);
    const float expect = static_cast<float>(n * (n + 1)) / 2.0f;
    for (float v : data) EXPECT_FLOAT_EQ(v, expect);
  });
  // Zero-size chunk sends count as messages, with zero bytes — exactly
  // what the closed-form volume predicts.
  const WireVolume v = ring_allreduce_volume(n, size);
  EXPECT_EQ(world.messages_sent(), v.messages);
  EXPECT_EQ(world.payload_bytes_sent(), v.bytes);
}

TEST(Collectives, AllgatherZeroSizeTensors) {
  const int n = 4;
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    // Odd ranks contribute empty tensors.
    Tensor mine = rank % 2 == 1
                      ? Tensor(DType::F32, Shape{{0}})
                      : Tensor::full(Shape{{2}}, static_cast<float>(rank));
    auto all = allgather(comm, mine);
    ASSERT_EQ(all.size(), static_cast<size_t>(n));
    for (int peer = 0; peer < n; ++peer) {
      EXPECT_EQ(all[static_cast<size_t>(peer)].numel(), peer % 2 == 1 ? 0 : 2);
    }
  });
  // n(n-1) forwards even when half the payloads are empty.
  EXPECT_EQ(world.messages_sent(), static_cast<uint64_t>(n * (n - 1)));
}

TEST(Collectives, OneFloatAllreduceManyRanksEmptyChunks) {
  // A one-float allreduce in every world with n > 1 exercises the
  // empty-chunk ring path (n - 1 of the n chunks are empty).
  for (int n : {2, 3, 7}) {
    World world(n);
    run_ranks(world, n, [&](int rank) {
      auto comm = world.comm(rank);
      float token = 1.0f;
      allreduce_sum(comm, std::span<float>(&token, 1));
      EXPECT_EQ(token, static_cast<float>(n));
    });
    const WireVolume v = ring_allreduce_volume(n, 1);
    EXPECT_EQ(world.messages_sent(), v.messages) << "n=" << n;
    EXPECT_EQ(world.payload_bytes_sent(), v.bytes) << "n=" << n;
  }
}

// The ring sends from the buffer it received the step before and keeps
// one per rank thread across calls. Sizes grow, then shrink (remainders,
// fewer elements than ranks, empty chunks), under a plan that drops ring
// messages: sums and transport counts equal those of rank threads started
// fresh, with fresh buffers, for every call.
TEST(Collectives, ReusedRingBuffersMatchFreshOnes) {
  const int n = 4;
  const std::vector<int64_t> sizes = {1, 3, 4, 9, 1000, 40001,
                                      4097, 998, 6, 2, 5};
  struct Outcome {
    std::vector<std::vector<float>> sums;  // [call * n + rank]
    uint64_t messages = 0;
    uint64_t bytes = 0;
    faults::FaultCounters faults;
  };
  auto run = [&](bool fresh_threads) {
    faults::FaultSpec spec;
    spec.seed = 17;
    spec.drop_prob = 0.3;
    const faults::FaultPlan plan(spec);
    NetworkModel net;
    net.n_workers = n;
    faults::FaultInjector injector(&plan, net, n);
    World world(n);
    world.install_faults(&injector);
    Outcome out;
    out.sums.resize(sizes.size() * static_cast<size_t>(n));
    auto call = [&](int rank, size_t c) {
      auto comm = world.comm(rank);
      std::vector<float> data(static_cast<size_t>(sizes[c]));
      Rng rng(1000 * c + static_cast<uint64_t>(rank));
      rng.fill_normal(data, 0.0f, 1.0f);
      allreduce_sum(comm, data, static_cast<int>(c));
      out.sums[c * static_cast<size_t>(n) + static_cast<size_t>(rank)] =
          std::move(data);
    };
    if (fresh_threads) {
      for (size_t c = 0; c < sizes.size(); ++c) {
        run_ranks(world, n, [&](int rank) { call(rank, c); });
      }
    } else {
      run_ranks(world, n, [&](int rank) {
        for (size_t c = 0; c < sizes.size(); ++c) call(rank, c);
      });
    }
    out.messages = world.messages_sent();
    out.bytes = world.payload_bytes_sent();
    out.faults = injector.totals();
    return out;
  };
  const Outcome reused = run(false);
  const Outcome fresh = run(true);
  // The plan really dropped ring messages, and the same ones both times.
  EXPECT_GT(reused.faults.drops_detected, 0u);
  EXPECT_EQ(reused.faults.drops_detected, fresh.faults.drops_detected);
  EXPECT_EQ(reused.faults.retransmitted_bytes,
            fresh.faults.retransmitted_bytes);
  EXPECT_EQ(reused.messages, fresh.messages);
  EXPECT_EQ(reused.bytes, fresh.bytes);
  // Clean deliveries are the closed-form ring volume; each dropped attempt
  // crossed the wire too.
  uint64_t messages = reused.faults.attempts_staged;
  uint64_t bytes = reused.faults.retransmitted_bytes;
  for (int64_t size : sizes) {
    const WireVolume v = ring_allreduce_volume(n, size);
    messages += v.messages;
    bytes += v.bytes;
  }
  EXPECT_EQ(reused.messages, messages);
  EXPECT_EQ(reused.bytes, bytes);
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (int r = 0; r < n; ++r) {
      const size_t at = c * static_cast<size_t>(n) + static_cast<size_t>(r);
      ASSERT_EQ(reused.sums[at], fresh.sums[at]) << "call " << c << " rank " << r;
      ASSERT_EQ(reused.sums[at], reused.sums[c * static_cast<size_t>(n)])
          << "call " << c << " rank " << r;
    }
  }
}

// The sum the ring makes, in its order, on one thread: racks of `rack`
// consecutive ranks fold their members into the leader in rank order, then
// chunk c of the leader ring (near-equal split over the racks) starts at
// rack c and adds racks c+1, c+2, ... in ring order.
std::vector<float> ring_order_sum(const std::vector<std::vector<float>>& x,
                                  int rack) {
  const int n = static_cast<int>(x.size());
  const int racks = (n + rack - 1) / rack;
  std::vector<std::vector<float>> leaders;
  for (int leader = 0; leader < n; leader += rack) {
    std::vector<float> acc = x[static_cast<size_t>(leader)];
    for (int m = leader + 1; m < std::min(leader + rack, n); ++m) {
      for (size_t i = 0; i < acc.size(); ++i) {
        acc[i] = acc[i] + x[static_cast<size_t>(m)][i];
      }
    }
    leaders.push_back(std::move(acc));
  }
  const auto size = static_cast<int64_t>(x[0].size());
  std::vector<float> out(x[0].size());
  const int64_t base = size / racks;
  const int64_t extra = size % racks;
  for (int c = 0; c < racks; ++c) {
    const int64_t begin = c * base + std::min<int64_t>(c, extra);
    const int64_t end = begin + base + (c < extra ? 1 : 0);
    for (int64_t i = begin; i < end; ++i) {
      const auto at = static_cast<size_t>(i);
      float acc = leaders[static_cast<size_t>(c)][at];
      for (int k = 1; k < racks; ++k) {
        acc = acc + leaders[static_cast<size_t>((c + k) % racks)][at];
      }
      out[at] = acc;
    }
  }
  return out;
}

TEST(Collectives, RingSumKeepsItsAssociation) {
  // Values of 3e7 next to O(1) ones round differently under other orders
  // of addition, so each rank's sum must equal, bit for bit, the
  // ring-order reference. Sizes leave remainders and, below the ring's
  // length, empty chunks; the flat ring and racks of 2 and 3.
  for (const int n : {2, 3, 4, 5, 8}) {
    for (const int rack : {1, 2, 3}) {
      for (const int64_t size : {int64_t{1}, int64_t{3}, int64_t{7},
                                 int64_t{64}, int64_t{103}, int64_t{1001}}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " rack=" << rack << " size=" << size);
        std::vector<std::vector<float>> x(static_cast<size_t>(n));
        Rng rng(static_cast<uint64_t>(1000 * n + 10 * rack) +
                static_cast<uint64_t>(size));
        for (size_t r = 0; r < x.size(); ++r) {
          std::vector<float>& v = x[r];
          v.resize(static_cast<size_t>(size));
          rng.fill_normal(v, 0.0f, 1.0f);
          for (size_t i = 0; i < v.size(); ++i) {
            if ((i + r) % 3 == 0) v[i] *= 3e7f;
          }
        }
        const std::vector<float> want = ring_order_sum(x, rack);
        World world(n);
        std::vector<std::vector<float>> got = x;
        run_ranks(world, n, [&](int rank) {
          auto comm = world.comm(rank);
          hierarchical_allreduce_sum(comm, got[static_cast<size_t>(rank)],
                                     rack);
        });
        for (int r = 0; r < n; ++r) {
          const std::vector<float>& g = got[static_cast<size_t>(r)];
          ASSERT_EQ(std::memcmp(g.data(), want.data(), g.size() * 4), 0)
              << "rank " << r;
        }
      }
    }
  }
}

TEST(Collectives, DeterministicAcrossRanks) {
  // All ranks must end with bit-identical buffers (the trainer's replica
  // consistency depends on this).
  const int n = 3;
  World world(n);
  std::vector<std::vector<float>> results(static_cast<size_t>(n));
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    Rng rng(static_cast<uint64_t>(rank) + 1);
    std::vector<float> data(257);
    rng.fill_normal(data, 0.0f, 1.0f);
    allreduce_sum(comm, data);
    results[static_cast<size_t>(rank)] = data;
  });
  for (int r = 1; r < n; ++r) {
    ASSERT_EQ(results[0], results[static_cast<size_t>(r)]);
  }
}

}  // namespace
}  // namespace grace::comm

namespace grace::comm {
namespace {

TEST(Comm, BytesSentSurvivesHandleCopies) {
  // Regression: Comm is passed by value all over the collectives; a
  // per-handle counter lost every byte sent through a copy. The count
  // lives in the World, so sends through any handle are counted.
  World world(2);
  std::thread t0([&] {
    auto comm = world.comm(0);
    Comm copy = comm;  // the old bug: bytes through `copy` vanished
    copy.send(1, Tensor::zeros(Shape{{10}}));  // 40 bytes
    comm.send(1, Tensor::zeros(Shape{{5}}));   // 20 bytes
  });
  std::thread t1([&] {
    auto comm = world.comm(1);
    (void)comm.recv(0);
    (void)comm.recv(0);
  });
  t0.join();
  t1.join();
  EXPECT_EQ(world.messages_sent(), 2u);
  EXPECT_EQ(world.payload_bytes_sent(), 60u);
}

// --- Hierarchical collectives ------------------------------------------

class HierarchicalTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HierarchicalTest, AllreduceSumsAndMatchesVolume) {
  const auto [n, rack, size] = GetParam();
  World world(n);
  std::vector<std::vector<float>> results(static_cast<size_t>(n));
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    std::vector<float> data(static_cast<size_t>(size));
    for (int i = 0; i < size; ++i) {
      data[static_cast<size_t>(i)] =
          static_cast<float>(rank + 1) * static_cast<float>(i + 1);
    }
    hierarchical_allreduce_sum(comm, data, rack);
    results[static_cast<size_t>(rank)] = data;
  });
  const float factor = static_cast<float>(n * (n + 1)) / 2.0f;
  for (int r = 0; r < n; ++r) {
    for (int i = 0; i < size; ++i) {
      ASSERT_NEAR(results[static_cast<size_t>(r)][static_cast<size_t>(i)],
                  factor * static_cast<float>(i + 1), 1e-3f)
          << "n=" << n << " rack=" << rack << " rank=" << r;
    }
    // All ranks bit-identical (replica sync depends on it).
    ASSERT_EQ(results[static_cast<size_t>(r)], results[0]);
  }
  // The topology model's closed form counts exactly what crossed the wire.
  NetworkModel net;
  net.n_workers = n;
  TopologyConfig cfg;
  cfg.kind = TopologyKind::Hierarchical;
  cfg.ranks_per_rack = rack;
  const WireVolume v = make_topology(cfg, net).allreduce_volume(size);
  EXPECT_EQ(world.messages_sent(), v.messages);
  EXPECT_EQ(world.payload_bytes_sent(), v.bytes);
}

TEST_P(HierarchicalTest, AllgatherOrdersBlobsAndMatchesVolume) {
  const auto [n, rack, size] = GetParam();
  const uint64_t blob_bytes = static_cast<uint64_t>(size);
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    Tensor mine(DType::U8, Shape{{size}});
    for (auto& b : mine.u8()) b = static_cast<uint8_t>(rank);
    auto all = hierarchical_allgather(comm, mine, rack);
    ASSERT_EQ(all.size(), static_cast<size_t>(n));
    for (int peer = 0; peer < n; ++peer) {
      const Tensor& t = all[static_cast<size_t>(peer)];
      ASSERT_EQ(t.numel(), size);
      for (uint8_t b : t.u8()) ASSERT_EQ(b, static_cast<uint8_t>(peer));
    }
  });
  NetworkModel net;
  net.n_workers = n;
  TopologyConfig cfg;
  cfg.kind = TopologyKind::Hierarchical;
  cfg.ranks_per_rack = rack;
  const WireVolume v = make_topology(cfg, net).allgather_volume(blob_bytes);
  EXPECT_EQ(world.messages_sent(), v.messages);
  EXPECT_EQ(world.payload_bytes_sent(), v.bytes);
}

// Rack sizes spanning: every-rank-a-leader (1), ragged last rack, exact
// division, single rack (rack >= n).
INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchicalTest,
    ::testing::Values(std::tuple{5, 1, 7}, std::tuple{5, 2, 7},
                      std::tuple{6, 3, 4}, std::tuple{4, 8, 5},
                      std::tuple{7, 3, 2}, std::tuple{1, 4, 3}));

TEST(Collectives, RingVolumeMatchesThreadWorld) {
  // Flat ring allgather of symmetric blobs vs the Ring topology model.
  const int n = 4;
  const int64_t blob = 5;
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    Tensor mine(DType::U8, Shape{{blob}});
    (void)allgather(comm, mine);
    (void)rank;
  });
  NetworkModel net;
  net.n_workers = n;
  const WireVolume v = make_topology(TopologyConfig{}, net)
                           .allgather_volume(static_cast<uint64_t>(blob));
  EXPECT_EQ(world.messages_sent(), v.messages);
  EXPECT_EQ(world.payload_bytes_sent(), v.bytes);
}

TEST(Collectives, BlobBundleRoundTrip) {
  std::vector<Tensor> blobs;
  blobs.emplace_back(DType::U8, Shape{{3}});
  blobs.back().u8()[0] = 7;
  blobs.emplace_back(DType::U8, Shape{{0}});  // empty blob is legal
  blobs.emplace_back(DType::U8, Shape{{5}});
  blobs.back().u8()[4] = 9;
  Tensor bundle = pack_blob_bundle(blobs);
  // Framing: u64 count + 3 u64 lengths + 8 payload bytes.
  EXPECT_EQ(bundle.size_bytes(), 8u * 4 + 8);
  auto out = unpack_blob_bundle(bundle);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].numel(), 3);
  EXPECT_EQ(out[0].u8()[0], 7);
  EXPECT_EQ(out[1].numel(), 0);
  EXPECT_EQ(out[2].u8()[4], 9);
}

TEST(Collectives, BlobBundleRejectsMalformed) {
  EXPECT_THROW(unpack_blob_bundle(Tensor(DType::U8, Shape{{4}})),
               std::runtime_error);  // truncated header
  Tensor huge_count(DType::U8, Shape{{16}});
  huge_count.u8()[0] = 0xFF;  // count = 255, nowhere near 8 bytes of lens
  EXPECT_THROW(unpack_blob_bundle(huge_count), std::runtime_error);
  Tensor bad_len = pack_blob_bundle(std::vector<Tensor>{
      Tensor(DType::U8, Shape{{2}})});
  bad_len.u8()[8] = 3;  // length now exceeds the remaining payload
  EXPECT_THROW(unpack_blob_bundle(bad_len), std::runtime_error);
  // Two lengths, 2^63 and 2^63 + 8, whose sum wraps 2^64 to the 8 payload
  // bytes present.
  Tensor wrapping = pack_blob_bundle(std::vector<Tensor>{
      Tensor(DType::U8, Shape{{3}}), Tensor(DType::U8, Shape{{5}})});
  const uint64_t lens[2] = {uint64_t{1} << 63, (uint64_t{1} << 63) + 8};
  std::memcpy(wrapping.u8().data() + 8, lens, sizeof lens);
  EXPECT_THROW(unpack_blob_bundle(wrapping), std::runtime_error);
  EXPECT_THROW(unpack_blob_bundle(Tensor::zeros(Shape{{4}})),
               std::runtime_error);  // F32, not U8
}

TEST(Collectives, HierarchicalRejectsBadArguments) {
  World world(1);
  auto comm = world.comm(0);
  std::vector<float> data(4, 1.0f);
  EXPECT_THROW(hierarchical_allreduce_sum(comm, data, 0),
               std::invalid_argument);
  EXPECT_THROW(hierarchical_allgather(comm, Tensor::zeros(Shape{{2}}), 2),
               std::invalid_argument);  // F32 blob
}

TEST(Comm, BytesSentAccounting) {
  // Payload bytes are counted per dtype: 400 (F32) + 7 (U8) + 4 (scalar).
  World world(2);
  std::thread t0([&] {
    auto comm = world.comm(0);
    comm.send(1, Tensor::zeros(Shape{{100}}));  // 400 bytes
    comm.send(1, Tensor(DType::U8, Shape{{7}}));
    (void)comm.recv(1);
  });
  std::thread t1([&] {
    auto comm = world.comm(1);
    (void)comm.recv(0);
    (void)comm.recv(0);
    comm.send(0, Tensor::scalar(1.0f));
  });
  t0.join();
  t1.join();
  EXPECT_EQ(world.messages_sent(), 3u);
  EXPECT_EQ(world.payload_bytes_sent(), 411u);
}

TEST(Comm, RanksAndSize) {
  World world(3);
  EXPECT_EQ(world.size(), 3);
  EXPECT_EQ(world.comm(2).rank(), 2);
  EXPECT_EQ(world.comm(0).size(), 3);
}

}  // namespace
}  // namespace grace::comm
