// Resilience accounting: totals of everything the fault-injection subsystem
// did during a run. Dependency-free so sim/metrics.h can embed it in
// RunResult. All-zero whenever no FaultPlan is installed.
#pragma once

#include <cstdint>

namespace grace::faults {

struct FaultCounters {
  // Link layer (faults::FaultInjector).
  uint64_t attempts_staged = 0;       // failed delivery attempts injected
  uint64_t drops_detected = 0;        // receiver retry-timer expiries
  uint64_t corruptions_detected = 0;  // CRC-rejected frames (NACKed)
  uint64_t retries = 0;               // re-deliveries = drops + corruptions
  uint64_t retransmitted_bytes = 0;   // extra bytes the retries moved
  double retry_stall_s = 0.0;         // simulated timeout + retransmit time

  // Trainer layer (sim/trainer.cc degraded modes).
  uint64_t straggler_events = 0;
  double straggler_stall_s = 0.0;  // raw injected delays, summed over ranks
  uint64_t rounds_skipped = 0;     // exchanges lost to skip-round faults
  uint64_t crashed_ranks = 0;
  uint64_t degraded_iters = 0;     // iterations run below full strength

  // Elastic membership + partial participation (docs/RESILIENCE.md).
  uint64_t leaves = 0;             // churn leave events applied
  uint64_t joins = 0;              // churn join events applied (bootstraps)
  uint64_t sat_out_rounds = 0;     // (rank, round) lottery/outage sit-outs
  uint64_t outages = 0;            // connectivity windows entered
  double outage_stall_s = 0.0;     // reconnect stalls charged

  FaultCounters& operator+=(const FaultCounters& o) {
    attempts_staged += o.attempts_staged;
    drops_detected += o.drops_detected;
    corruptions_detected += o.corruptions_detected;
    retries += o.retries;
    retransmitted_bytes += o.retransmitted_bytes;
    retry_stall_s += o.retry_stall_s;
    straggler_events += o.straggler_events;
    straggler_stall_s += o.straggler_stall_s;
    rounds_skipped += o.rounds_skipped;
    crashed_ranks += o.crashed_ranks;
    degraded_iters += o.degraded_iters;
    leaves += o.leaves;
    joins += o.joins;
    sat_out_rounds += o.sat_out_rounds;
    outages += o.outages;
    outage_stall_s += o.outage_stall_s;
    return *this;
  }
};

}  // namespace grace::faults
