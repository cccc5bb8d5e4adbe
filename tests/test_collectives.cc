// In-process message passing and collectives, executed by real threads.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "comm/collectives.h"
#include "comm/topology.h"
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
  EXPECT_EQ(box.pending(), 0u);
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

TEST(Collectives, Broadcast) {
  const int n = 4;
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    Tensor t = rank == 2 ? Tensor::from(std::vector<float>{5, 6})
                         : Tensor::zeros(Shape{{2}});
    broadcast(comm, t, /*root=*/2);
    EXPECT_FLOAT_EQ(t.f32()[0], 5.0f);
    EXPECT_FLOAT_EQ(t.f32()[1], 6.0f);
  });
}

TEST(Collectives, BarrierCompletes) {
  const int n = 6;
  World world(n);
  run_ranks(world, n, [&](int rank) {
    auto comm = world.comm(rank);
    barrier(comm);
    barrier(comm, 1);
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

TEST(Collectives, BarrierManyRanksEmptyChunks) {
  // barrier() allreduces ONE float, so every world with n > 1 exercises the
  // empty-chunk ring path (n - 1 of the n chunks are empty).
  for (int n : {2, 3, 7}) {
    World world(n);
    run_ranks(world, n, [&](int rank) {
      auto comm = world.comm(rank);
      barrier(comm);
    });
    const WireVolume v = ring_allreduce_volume(n, 1);
    EXPECT_EQ(world.messages_sent(), v.messages) << "n=" << n;
    EXPECT_EQ(world.payload_bytes_sent(), v.bytes) << "n=" << n;
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
  // per-handle counter lost every byte sent through a copy. The count now
  // lives in a per-rank World slot, so any handle for the rank sees it.
  World world(2);
  std::thread t0([&] {
    auto comm = world.comm(0);
    Comm copy = comm;  // the old bug: bytes through `copy` vanished
    copy.send(1, Tensor::zeros(Shape{{10}}));  // 40 bytes
    comm.send(1, Tensor::zeros(Shape{{5}}));   // 20 bytes
    EXPECT_EQ(comm.bytes_sent(), 60u);
    EXPECT_EQ(copy.bytes_sent(), 60u);
    EXPECT_EQ(world.comm(0).bytes_sent(), 60u);  // a brand-new handle too
  });
  std::thread t1([&] {
    auto comm = world.comm(1);
    (void)comm.recv(0);
    (void)comm.recv(0);
    EXPECT_EQ(comm.bytes_sent(), 0u);  // per-rank, not world-global
  });
  t0.join();
  t1.join();
  EXPECT_EQ(world.payload_bytes_sent(), 60u);
  EXPECT_EQ(world.rank_bytes_sent(0), 60u);
  EXPECT_EQ(world.rank_bytes_sent(1), 0u);
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
  World world(2);
  std::vector<size_t> sent(2);
  std::thread t0([&] {
    auto comm = world.comm(0);
    comm.send(1, Tensor::zeros(Shape{{100}}));  // 400 bytes
    comm.send(1, Tensor(DType::U8, Shape{{7}}));
    (void)comm.recv(1);
    sent[0] = comm.bytes_sent();
  });
  std::thread t1([&] {
    auto comm = world.comm(1);
    (void)comm.recv(0);
    (void)comm.recv(0);
    comm.send(0, Tensor::scalar(1.0f));
    sent[1] = comm.bytes_sent();
  });
  t0.join();
  t1.join();
  EXPECT_EQ(sent[0], 407u);
  EXPECT_EQ(sent[1], 4u);
}

TEST(Comm, RanksAndSize) {
  World world(3);
  EXPECT_EQ(world.size(), 3);
  EXPECT_EQ(world.comm(2).rank(), 2);
  EXPECT_EQ(world.comm(0).size(), 3);
}

}  // namespace
}  // namespace grace::comm
