#include "comm/topology.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace grace::comm {

const char* topology_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Ring: return "ring";
    case TopologyKind::ParameterServer: return "ps";
    case TopologyKind::Hierarchical: return "hierarchical";
  }
  return "unknown";
}

void TopologyConfig::validate(int n_workers) const {
  if (n_workers < 1) {
    throw std::invalid_argument("TopologyConfig: n_workers must be >= 1");
  }
  if (ps_shards < 1) {
    throw std::invalid_argument("TopologyConfig: ps_shards must be >= 1");
  }
  if (kind == TopologyKind::ParameterServer && ps_shards > n_workers) {
    throw std::invalid_argument(
        "TopologyConfig: ps_shards (" + std::to_string(ps_shards) +
        ") exceeds the world size (" + std::to_string(n_workers) + ")");
  }
  if (ranks_per_rack < 1) {
    throw std::invalid_argument("TopologyConfig: ranks_per_rack must be >= 1");
  }
  if (!(cross_rack_gbps >= 0.0) || !std::isfinite(cross_rack_gbps)) {
    throw std::invalid_argument(
        "TopologyConfig: cross_rack_gbps must be finite and >= 0");
  }
}

std::string TopologyConfig::to_string() const {
  std::ostringstream os;
  os << topology_name(kind);
  if (kind == TopologyKind::ParameterServer && ps_shards > 1) {
    os << "(shards=" << ps_shards << ")";
  }
  if (kind == TopologyKind::Hierarchical) {
    os << "(rack=" << ranks_per_rack;
    if (cross_rack_gbps > 0.0) os << ",cross=" << cross_rack_gbps << "Gbps";
    os << ")";
  }
  return os.str();
}

WireVolume ring_allreduce_volume(int n, int64_t numel) {
  if (n <= 1) return {};
  const auto un = static_cast<uint64_t>(n);
  const auto steps = 2ull * (un - 1);
  // Every step, each rank sends one chunk and the n chunks partition the
  // vector, so the per-step byte total is exactly 4 * numel regardless of
  // how ragged (or empty) the chunks are.
  return WireVolume{steps * un, steps * 4ull * static_cast<uint64_t>(numel)};
}

TopologyModel::TopologyModel(const TopologyConfig& cfg, const NetworkModel& net)
    : net_(net), cross_net_(net), m_(1) {
  if (cfg.kind == TopologyKind::Hierarchical) {
    m_ = cfg.ranks_per_rack;
    if (cfg.cross_rack_gbps > 0.0) {
      cross_net_.bandwidth_gbps = cfg.cross_rack_gbps;
    }
  }
}

double TopologyModel::fan_seconds(double bytes) const {
  const int rack = std::min(m_, net_.n_workers);
  if (rack <= 1) return 0.0;
  return (rack - 1.0) * (bytes / net_.effective_bytes_per_sec() +
                         net_.per_message_overhead_sec()) +
         net_.latency_us * 1e-6;
}

// Two-level dense sum (comm/collectives.cc hierarchical_allreduce_sum):
// every rack fans the full payload into its leader (racks in parallel, the
// biggest rack governs), the R leaders run a ring allreduce over the
// cross-rack links, leaders fan the result back out. At one rank per rack
// the fans are free and the leader ring is the flat ring: 2(n-1) steps,
// each moving bytes/n per rank.
double TopologyModel::allreduce_seconds(uint64_t wire_bytes) const {
  if (net_.n_workers <= 1) return 0.0;
  const double bytes = static_cast<double>(wire_bytes);
  const int R = racks();
  double t = 2.0 * fan_seconds(bytes);
  if (R > 1) {
    const double steps = 2.0 * (R - 1.0);
    t += steps * (bytes / R / cross_net_.effective_bytes_per_sec() +
                  cross_net_.latency_us * 1e-6 +
                  cross_net_.per_message_overhead_sec());
  }
  return t;
}

WireVolume TopologyModel::allreduce_volume(int64_t numel) const {
  const int n = net_.n_workers;
  if (n <= 1) return {};
  const int R = racks();
  const auto members = static_cast<uint64_t>(n - R);
  const auto bytes4 = 4ull * static_cast<uint64_t>(numel);
  // Fan-in + fan-out of the full vector, plus the leaders' ring.
  WireVolume v{2 * members, 2 * members * bytes4};
  v += ring_allreduce_volume(R, numel);
  return v;
}

// Two-level blob gather (hierarchical_allgather): members send their blob
// to the leader, leaders ring-allgather per-rack bundles, every leader then
// fans the full n-blob bundle back to its members. At one rank per rack
// this is the flat ring allgather: n-1 steps, at each of which every rank
// forwards one origin's payload to its successor while receiving another
// (full duplex), so a step moves (my + others) / n bytes per link and pays
// the link latency plus a send and a receive software overhead.
double TopologyModel::allgather_seconds(uint64_t my, uint64_t others) const {
  const int n = net_.n_workers;
  if (n <= 1) return 0.0;
  const double bytes = static_cast<double>(my) + static_cast<double>(others);
  const double avg = bytes / n;
  const int R = racks();
  double t = fan_seconds(avg) + fan_seconds(avg * n);
  if (R > 1) {
    const double per_step = bytes / R;  // one rack bundle per link/step
    t += (R - 1.0) * (per_step / cross_net_.effective_bytes_per_sec() +
                      cross_net_.latency_us * 1e-6 +
                      2.0 * cross_net_.per_message_overhead_sec());
  }
  return t;
}

WireVolume TopologyModel::allgather_volume(uint64_t blob_bytes) const {
  const int n = net_.n_workers;
  if (n <= 1) return {};
  const auto un = static_cast<uint64_t>(n);
  // Flat ring with symmetric per-rank blobs: n-1 steps, each rank forwards
  // one origin's payload per step, so each origin's blob crosses n-1 links.
  // One rank per rack degenerates to it: the implementation skips bundling
  // entirely, so no framing bytes hit the wire.
  if (m_ <= 1) {
    return WireVolume{un * (un - 1), un * (un - 1) * blob_bytes};
  }
  const int R = racks();
  const auto uR = static_cast<uint64_t>(R);
  const auto members = un - uR;
  WireVolume v;
  // Fan-in: every non-leader sends its blob to its leader.
  v += WireVolume{members, members * blob_bytes};
  if (R > 1) {
    // Leader ring of per-rack bundles. Bundle framing (pack_blob_bundle):
    // u64 count + one u64 length per blob + the payload bytes, so the sum
    // of all R bundles is 8(R + n) + n * blob. Each bundle is forwarded
    // R-1 times.
    const uint64_t all_bundles = 8 * (uR + un) + un * blob_bytes;
    v += WireVolume{uR * (uR - 1), (uR - 1) * all_bundles};
  }
  // Fan-out: each leader sends the full n-blob bundle to its members.
  const uint64_t full_bundle = 8 * (1 + un) + un * blob_bytes;
  v += WireVolume{members, members * full_bundle};
  return v;
}

double TopologyModel::push_pull_seconds(uint64_t up, uint64_t down) const {
  return net_.parameter_server_seconds(up, down);
}

// Single-shard push/pull: n-1 serialized uploads, n-1 dense downloads (the
// serving rank never sends to itself).
WireVolume TopologyModel::push_pull_volume(uint64_t blob_bytes,
                                           uint64_t download_bytes) const {
  if (net_.n_workers <= 1) return {};
  const auto peers = static_cast<uint64_t>(net_.n_workers - 1);
  return WireVolume{2 * peers, peers * (blob_bytes + download_bytes)};
}

TopologyModel make_topology(const TopologyConfig& cfg,
                            const NetworkModel& net) {
  net.validate();
  cfg.validate(net.n_workers);
  return TopologyModel(cfg, net);
}

}  // namespace grace::comm
