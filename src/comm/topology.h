// Pluggable communication topologies (DESIGN.md §10).
//
// A TopologyModel is the pair of ledgers one collective round needs at
// fleet scale:
//   * *_seconds(...) — the simulated wall time of the round under the
//     alpha-beta NetworkModel;
//   * *_volume(...)  — the exact transport volume (message count + payload
//     bytes) the thread-backed collectives (comm/collectives.cc) push
//     through the mailboxes for the same round. The large-scale simulated
//     world (sim/simworld.h) reports these totals, and for worlds small
//     enough to run both modes they match the World atomic counters
//     exactly — the closed forms are pinned against the real dataflow by
//     tests/test_simworld.cc.
//
// One model serves every kind; the kinds differ only in the dataflow
// GraceWorker::wait runs:
//   Ring            — the flat ring collectives: the hierarchical
//                     collectives at one rank per rack.
//   ParameterServer — push/pull through server ranks with bucket-level
//                     sharding (mxnet-kvstore style): exchange tag t is
//                     served by rank t % ps_shards, so consecutive fusion
//                     buckets spread round-robin over the shard ranks.
//   Hierarchical    — two-level rack-aware collectives: intra-rack fan-in
//                     to a rack leader, a ring across the R leaders (over
//                     optionally slower cross-rack links), intra-rack
//                     fan-out.
// Dense sums and blob gathers are priced by the two-level formulas at the
// model's rack size (ranks_per_rack()): Hierarchical's ranks_per_rack, and
// one rank per rack — the flat ring — for every other kind. Push/pull is
// priced the same way for every kind.
#pragma once

#include <cstdint>
#include <string>

#include "comm/network_model.h"

namespace grace::comm {

enum class TopologyKind : uint8_t { Ring = 0, ParameterServer = 1, Hierarchical = 2 };

const char* topology_name(TopologyKind kind);

struct TopologyConfig {
  TopologyKind kind = TopologyKind::Ring;
  // ParameterServer: number of server shards (ranks 0..ps_shards-1 each
  // serve the exchanges whose tag maps to them; every rank computes the
  // same tag sequence, so the assignment needs no coordination).
  int ps_shards = 1;
  // Hierarchical: ranks per rack; the last rack may be smaller. 1 makes
  // every rank a leader (degenerates to a flat ring over all ranks).
  int ranks_per_rack = 8;
  // Hierarchical: bandwidth of the cross-rack (leader ring) links in Gbps;
  // 0 means the same as NetworkModel::bandwidth_gbps. Other kinds ignore it.
  double cross_rack_gbps = 0.0;

  // Throws std::invalid_argument when the parameters cannot drive an
  // n_workers-rank world (ps_shards outside [1, n], ranks_per_rack < 1,
  // negative or non-finite cross-rack bandwidth).
  void validate(int n_workers) const;
  std::string to_string() const;
};

// Transport volume of one collective round, counted exactly as the
// thread-backed world's mailboxes would: one message per Comm::send, bytes
// equal to each sent tensor's size_bytes() (zero-size chunk sends still
// count as messages).
struct WireVolume {
  uint64_t messages = 0;
  uint64_t bytes = 0;

  WireVolume& operator+=(const WireVolume& o) {
    messages += o.messages;
    bytes += o.bytes;
    return *this;
  }
  bool operator==(const WireVolume& o) const = default;
};

inline WireVolume operator*(WireVolume v, uint64_t rounds) {
  return WireVolume{v.messages * rounds, v.bytes * rounds};
}

// Exact volume of one flat ring allreduce_sum over n ranks of a numel-long
// f32 span: 2(n-1) steps, every rank sends one chunk per step and the
// chunks partition the vector (empty chunks when numel < n still send).
// Free function because the trainer's sync check rides the flat ring
// regardless of the configured topology.
WireVolume ring_allreduce_volume(int n, int64_t numel);

class TopologyModel {
 public:
  // Dense f32 element-wise sum across all ranks (the Allreduce-mode
  // compressor path). `wire_bytes` is the logical payload size per rank.
  double allreduce_seconds(uint64_t wire_bytes) const;
  WireVolume allreduce_volume(int64_t numel) const;

  // Serialized-blob gather where this rank's logical payload is
  // `my_wire_bytes` and the other ranks contribute `others_wire_bytes`
  // in total. The volume form assumes symmetric per-rank blobs of
  // `blob_bytes` physical bytes (true for size-deterministic compressors).
  double allgather_seconds(uint64_t my_wire_bytes,
                           uint64_t others_wire_bytes) const;
  WireVolume allgather_volume(uint64_t blob_bytes) const;

  // Parameter-server push/pull of one exchange: n-1 compressed uploads
  // into the serving shard, one dense aggregate pushed back to n-1
  // workers. Every exchange rides exactly one shard, so the per-round
  // formulas are single-server; sharding pays off across rounds (different
  // buckets load different server links).
  double push_pull_seconds(uint64_t total_upload_bytes,
                           uint64_t download_bytes) const;
  WireVolume push_pull_volume(uint64_t blob_bytes,
                              uint64_t download_bytes) const;

  // The rack size the collectives run at (GraceWorker) and are priced at:
  // TopologyConfig::ranks_per_rack for Hierarchical, 1 for other kinds.
  int ranks_per_rack() const { return m_; }

 private:
  // Built only by make_topology, which validates the parameters first.
  friend TopologyModel make_topology(const TopologyConfig& cfg,
                                     const NetworkModel& net);
  TopologyModel(const TopologyConfig& cfg, const NetworkModel& net);

  int racks() const { return (net_.n_workers + m_ - 1) / m_; }
  // Serialized fan (in or out) of `bytes` between a leader and the members
  // of the largest rack, on the intra-rack links.
  double fan_seconds(double bytes) const;

  NetworkModel net_;
  NetworkModel cross_net_;  // the leader ring's links
  int m_;                   // ranks per rack
};

// Builds the cost/volume model for `cfg` over `net`. Validates both
// (throws std::invalid_argument on nonsense parameters).
TopologyModel make_topology(const TopologyConfig& cfg, const NetworkModel& net);

}  // namespace grace::comm
