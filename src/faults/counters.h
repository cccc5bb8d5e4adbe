// Resilience accounting: totals of everything the fault-injection subsystem
// did during a run. Dependency-free so sim/metrics.h can embed it in
// RunResult. All-zero whenever no FaultPlan is installed.
#pragma once

#include <cstdint>
#include <iterator>
#include <string_view>

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

  FaultCounters& operator+=(const FaultCounters& o);
};

// One FaultCounters field: the name it carries in run_result_json's
// "faults" object and as the run report's "fault.<name>" row, and the
// member itself — a count or simulated seconds, exactly one of the two set.
struct FaultField {
  std::string_view name;
  uint64_t FaultCounters::*count = nullptr;
  double FaultCounters::*seconds = nullptr;

  double value(const FaultCounters& c) const {
    return count != nullptr ? static_cast<double>(c.*count) : c.*seconds;
  }
};

// The one list of FaultCounters' fields, in declaration order. operator+=,
// the JSON object, the report rows and their diff rules all iterate it.
inline constexpr FaultField kFaultFields[] = {
    {"attempts_staged", &FaultCounters::attempts_staged},
    {"drops_detected", &FaultCounters::drops_detected},
    {"corruptions_detected", &FaultCounters::corruptions_detected},
    {"retries", &FaultCounters::retries},
    {"retransmitted_bytes", &FaultCounters::retransmitted_bytes},
    {"retry_stall_seconds", nullptr, &FaultCounters::retry_stall_s},
    {"straggler_events", &FaultCounters::straggler_events},
    {"straggler_stall_seconds", nullptr, &FaultCounters::straggler_stall_s},
    {"rounds_skipped", &FaultCounters::rounds_skipped},
    {"crashed_ranks", &FaultCounters::crashed_ranks},
    {"degraded_iters", &FaultCounters::degraded_iters},
    {"leaves", &FaultCounters::leaves},
    {"joins", &FaultCounters::joins},
    {"sat_out_rounds", &FaultCounters::sat_out_rounds},
    {"outages", &FaultCounters::outages},
    {"outage_stall_seconds", nullptr, &FaultCounters::outage_stall_s},
};
// Every field is 8 bytes wide, so a field missing from the list fails here.
static_assert(sizeof(FaultCounters) == std::size(kFaultFields) * 8);

inline FaultCounters& FaultCounters::operator+=(const FaultCounters& o) {
  for (const FaultField& f : kFaultFields) {
    if (f.count != nullptr) {
      this->*f.count += o.*f.count;
    } else {
      this->*f.seconds += o.*f.seconds;
    }
  }
  return *this;
}

}  // namespace grace::faults
