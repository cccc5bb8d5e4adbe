// Alpha-beta network cost model sanity and monotonicity. The flat ring
// collectives are priced by the Ring topology model (comm/topology.h).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "comm/network_model.h"
#include "comm/topology.h"

namespace grace::comm {
namespace {

NetworkModel base() {
  NetworkModel net;
  net.n_workers = 8;
  net.bandwidth_gbps = 10.0;
  net.transport = Transport::Tcp;
  return net;
}

// The flat ring over `net`'s links.
TopologyModel ring(const NetworkModel& net) {
  return make_topology(TopologyConfig{}, net);
}

TEST(NetworkModel, SingleWorkerIsFree) {
  NetworkModel net = base();
  net.n_workers = 1;
  EXPECT_EQ(ring(net).allreduce_seconds(1 << 20), 0.0);
  EXPECT_EQ(ring(net).allgather_seconds(1 << 20, 0), 0.0);
}

TEST(NetworkModel, MoreBytesTakeLonger) {
  const TopologyModel net = ring(base());
  EXPECT_LT(net.allreduce_seconds(1 << 10), net.allreduce_seconds(1 << 24));
  EXPECT_LT(net.allgather_seconds(1 << 10, 7 << 10),
            net.allgather_seconds(1 << 24, 7ull << 24));
}

TEST(NetworkModel, FasterLinksAreFaster) {
  NetworkModel slow = base(), fast = base();
  slow.bandwidth_gbps = 1.0;
  fast.bandwidth_gbps = 25.0;
  EXPECT_GT(ring(slow).allreduce_seconds(10 << 20),
            ring(fast).allreduce_seconds(10 << 20));
}

TEST(NetworkModel, RdmaBeatsTcpAtEqualBandwidth) {
  NetworkModel rdma_net = base();
  rdma_net.transport = Transport::Rdma;
  const TopologyModel tcp = ring(base()), rdma = ring(rdma_net);
  for (uint64_t bytes : {1024u, 1u << 20, 1u << 26}) {
    EXPECT_GT(tcp.allreduce_seconds(bytes), rdma.allreduce_seconds(bytes));
    EXPECT_GT(tcp.allgather_seconds(bytes, 7 * bytes),
              rdma.allgather_seconds(bytes, 7 * bytes));
  }
}

TEST(NetworkModel, LargeTransferApproachesWireRate) {
  NetworkModel net = base();
  const size_t bytes = 1ull << 30;  // 1 GiB
  // Ring allreduce moves 2(n-1)/n * bytes per rank.
  const double ideal = 2.0 * 7.0 / 8.0 * static_cast<double>(bytes) /
                       net.effective_bytes_per_sec();
  const double modeled = ring(net).allreduce_seconds(bytes);
  EXPECT_NEAR(modeled, ideal, ideal * 0.05);  // latency amortized away
}

TEST(NetworkModel, SmallTransferDominatedByOverhead) {
  const TopologyModel net = ring(base());
  const double t1 = net.allreduce_seconds(64);
  const double t2 = net.allreduce_seconds(128);
  // Doubling a tiny payload barely changes the time.
  EXPECT_LT((t2 - t1) / t1, 0.01);
}

TEST(NetworkModel, AllgatherScalesWithPeerPayloads) {
  const TopologyModel net = ring(base());
  const double few = net.allgather_seconds(1 << 10, 7 << 10);
  const double many = net.allgather_seconds(1 << 10, 7 << 20);
  EXPECT_GT(many, few);
}

TEST(NetworkModel, AllgatherChargesLatencyPerRingStep) {
  // Regression: the ring allgather runs n-1 sequential steps
  // (comm/collectives.cc), so each step must pay the link latency — the
  // model used to charge it once, making high-latency allgather
  // impossibly fast.
  NetworkModel lo = base(), hi = base();
  lo.latency_us = 0.0;
  hi.latency_us = 500.0;
  const uint64_t mine = 1 << 10;
  const uint64_t others = 7 << 10;
  const double delta = ring(hi).allgather_seconds(mine, others) -
                       ring(lo).allgather_seconds(mine, others);
  const double n_minus_1 = static_cast<double>(hi.n_workers - 1);
  EXPECT_NEAR(delta, n_minus_1 * hi.latency_us * 1e-6, 1e-12);
}

TEST(NetworkModel, HighLatencyRegimePinsStepRatio) {
  // With latency >> wire time, collectives degenerate to steps x latency:
  // allreduce runs 2(n-1) ring steps, allgather n-1, so their ratio
  // approaches 2 regardless of payload.
  NetworkModel net = base();
  net.latency_us = 50000.0;  // 50 ms — dwarfs the microsecond wire times
  const uint64_t bytes = 1 << 10;
  const double ratio = ring(net).allreduce_seconds(bytes) /
                       ring(net).allgather_seconds(bytes, 7 * bytes);
  EXPECT_NEAR(ratio, 2.0, 0.01);
}

TEST(NetworkModel, ValidateAcceptsDefaultsAndBase) {
  EXPECT_NO_THROW(NetworkModel{}.validate());
  EXPECT_NO_THROW(base().validate());
}

TEST(NetworkModel, ValidateRejectsBadFields) {
  // Regression: a zero-bandwidth model used to divide by zero and poison
  // every downstream cost with inf/nan instead of failing loudly.
  NetworkModel net = base();
  net.n_workers = 0;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net = base();
  net.bandwidth_gbps = 0.0;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.bandwidth_gbps = -1.0;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.bandwidth_gbps = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.bandwidth_gbps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net = base();
  net.latency_us = -0.5;
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.latency_us = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(net.validate(), std::invalid_argument);
}

TEST(NetworkModel, Names) {
  EXPECT_EQ(transport_name(Transport::Tcp), "TCP");
  EXPECT_EQ(transport_name(Transport::Rdma), "RDMA");
}

}  // namespace
}  // namespace grace::comm
