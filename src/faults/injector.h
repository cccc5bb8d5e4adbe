// The runtime half of the fault subsystem: implements comm::LinkFaults
// over a FaultPlan. Senders stage flagged failed-delivery attempts ahead
// of every clean payload (a dropped attempt is an empty tombstone carrying
// its byte count; a corrupt attempt is a real bit-flipped copy of a
// CRC-framed blob); receivers discard the flagged attempts, really
// CRC-check the corrupt ones, and charge the simulated retry cost —
// timeout with exponential backoff for drops, NACK + retransmission for
// corruptions — to per-rank stall accumulators the trainer drains every
// iteration. Determinism: outcomes key off per-link sequence counters,
// each written only by its sender thread. See docs/RESILIENCE.md.
#pragma once

#include <vector>

#include "comm/network_model.h"
#include "comm/world.h"
#include "faults/counters.h"
#include "faults/fault_plan.h"

namespace grace::faults {

class FaultInjector final : public comm::LinkFaults {
 public:
  // `plan` is borrowed and must outlive the injector; `n_ranks` sizes the
  // per-rank slots, indexed by live rank in the world it is installed on.
  FaultInjector(const FaultPlan* plan, const comm::NetworkModel& net,
                int n_ranks);

  void stage_attempts(comm::World& world, int src, int dst, int tag,
                      const Tensor& payload) override;
  void on_failed_attempt(int receiver, const comm::Message& attempt) override;
  // Liveness guard only (real time, not simulated); generous so slow CI
  // boxes never trip it on a healthy run.
  double recv_deadline_s() const override { return 30.0; }

  // Simulated fault-stall seconds `rank` accumulated since the last drain.
  // Single consumer per slot: the rank's own worker thread.
  double drain_stall(int rank);

  // Link-layer totals, folded over ranks in ascending order.
  FaultCounters totals() const;

 private:
  // One cache line per rank: counters and the stall accumulator are written
  // by that rank's thread only; link_seq[dst] counts sends src->dst and is
  // written by the src thread only.
  struct alignas(64) RankSlot {
    FaultCounters counters;
    double pending_stall_s = 0.0;
    std::vector<uint64_t> link_seq;
  };

  const FaultPlan* plan_;
  comm::NetworkModel net_;
  std::vector<RankSlot> ranks_;
};

}  // namespace grace::faults
