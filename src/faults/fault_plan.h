// Deterministic chaos plans (docs/RESILIENCE.md). A FaultSpec is the
// user-facing description of a fault scenario — drop/corruption rates,
// straggler schedule, skip-round rate, one optional permanent crash — with
// a flat JSON round-trip so plans travel as files (`bench_e2e
// --faults=plan.json`). A FaultPlan turns a spec into pure decision
// functions: every outcome is a hash of (spec.seed, identifiers), never of
// wall clock or call order, so a run under a plan replays bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/counters.h"

namespace grace::faults {

// Message::fault values for staged failed delivery attempts.
inline constexpr uint8_t kAttemptDropped = 1;  // lost in transit, timeout
inline constexpr uint8_t kAttemptCorrupt = 2;  // arrived bit-flipped, NACK

// One membership transition: `rank` leaves (join == false) or rejoins
// (join == true) the fleet at the start of absolute epoch `epoch`. Epochs
// are absolute so a start_epoch resume replays the tail of the same plan.
// Rank 0 never churns; consistency (no double-leave, join only of an absent
// rank) is enforced by core::MembershipSchedule, which turns the event list
// into ordered world views.
struct ChurnEvent {
  int epoch = 0;
  int rank = -1;
  bool join = false;
};

struct FaultSpec {
  uint64_t seed = 1;

  // Link faults, applied per delivery attempt on every point-to-point
  // message (collective internals included).
  double drop_prob = 0.0;     // attempt vanishes; receiver times out
  double corrupt_prob = 0.0;  // attempt arrives with one flipped bit
  int max_retries = 8;        // attempt max_retries always delivers
  double retry_timeout_s = 1e-3;  // simulated wait before the first retry;
                                  // doubles per retry (exponential backoff)

  // Stragglers: a per-(rank, iteration) simulated stall.
  double straggler_prob = 0.0;
  double straggler_delay_s = 0.0;
  int straggler_rank = -1;  // -1: any rank can straggle

  // Degraded rounds: the whole exchange of an iteration is lost; workers
  // carry their gradients in the error-feedback residual instead.
  double skip_round_prob = 0.0;

  // Permanent crash: `crash_rank` leaves the fleet just before iteration
  // (crash_epoch, crash_iter), and the survivors keep training (a
  // membership leave, core/membership.h). Rank 0 must survive (it owns
  // evaluation and run bookkeeping), so crash_rank == 0 is rejected. -1
  // disables.
  int crash_rank = -1;
  int crash_epoch = 0;
  int64_t crash_iter = 0;

  // Elastic membership: planned leave/join events at epoch boundaries.
  // Mutually exclusive with the one-shot crash above (a churn leave event
  // subsumes it). See core/membership.h for the schedule semantics.
  std::vector<ChurnEvent> churn;

  // Partial participation: each round, every non-root rank independently
  // draws whether it contributes its gradient this round (FedAvg-style
  // client sampling). Non-participants absorb their gradient into the EF
  // residual, ship a zero payload to keep the collectives in lockstep, and
  // still apply the aggregate (model-broadcast catch-up), so replicas stay
  // bit-identical. 1.0 disables the lottery.
  double participation_rate = 1.0;

  // Intermittent connectivity: a rank that draws an outage sits out
  // `outage_iters` consecutive rounds (windows never cross an epoch
  // boundary) and pays a reconnect stall when it comes back. Outages imply
  // non-participation for the window. -1: any non-root rank can drop out.
  double outage_prob = 0.0;
  int64_t outage_iters = 2;
  double outage_reconnect_stall_s = 0.0;
  int outage_rank = -1;

  bool has_crash() const { return crash_rank >= 0; }
  bool has_churn() const { return !churn.empty(); }
  bool has_partial_participation() const {
    return participation_rate < 1.0 || outage_prob > 0.0;
  }
};

// Flat-JSON round-trip: {"seed":1,"drop_prob":0.1,...}. Unknown or
// repeated keys, malformed input, non-JSON numbers, non-integral or
// out-of-range values of integer fields and non-finite values throw
// std::invalid_argument; absent keys keep defaults.
std::string fault_spec_json(const FaultSpec& spec);
FaultSpec parse_fault_spec_json(const std::string& text);

class FaultPlan {
 public:
  FaultPlan() = default;
  // Validates the spec (probabilities in [0,1], finite non-negative
  // delays, max_retries >= 1, crash_rank != 0); throws
  // std::invalid_argument.
  explicit FaultPlan(const FaultSpec& spec);

  const FaultSpec& spec() const { return spec_; }

  // Outcome of delivery attempt `attempt` of the `seq`-th message on the
  // src->dst link: 0 = delivered, else kAttemptDropped / kAttemptCorrupt.
  // The last allowed attempt (== spec.max_retries) always delivers, so
  // collectives terminate under any drop rate.
  uint8_t attempt_outcome(int src, int dst, uint64_t seq, int attempt) const;
  // Which bit a corrupted attempt flips, in [0, n_bits).
  uint64_t corrupt_bit(int src, int dst, uint64_t seq, int attempt,
                       uint64_t n_bits) const;
  // Simulated straggler stall injected into (rank, epoch, iter); 0 when
  // the rank is healthy there.
  double straggler_delay(int rank, int epoch, int64_t iter) const;
  // True when the exchange round of (epoch, iter) is lost for all ranks.
  bool round_skipped(int epoch, int64_t iter) const;

  // True while (rank, epoch, iter) sits inside a connectivity-outage
  // window: some draw in the trailing `outage_iters` rounds of this epoch
  // opened one. Rank 0 never drops out.
  bool in_outage(int rank, int epoch, int64_t iter) const;
  // True when this round is the first after an outage window closed — the
  // reconnect boundary where outage_reconnect_stall_s is charged.
  bool outage_reconnect(int rank, int epoch, int64_t iter) const;
  // Participant selection for (rank, epoch, iter): rank 0 always
  // participates; ranks in an outage window never do; otherwise a seeded
  // per-round lottery at participation_rate decides. Deterministic in the
  // coordinates alone, so every rank computes the same roster.
  bool participates(int rank, int epoch, int64_t iter) const;

  // The stall the plan charges (rank, epoch, iter) on top of its link-fault
  // retries: the straggler delay plus, on the first round after an outage
  // window, the reconnect stall. Counts what it charges into `counters`
  // (straggler_events, straggler_stall_s, outage_stall_s) and the outage
  // windows (rank, epoch, iter) enters (outages).
  double stall(int rank, int epoch, int64_t iter,
               FaultCounters& counters) const;

 private:
  uint64_t hash(uint64_t kind, uint64_t a, uint64_t b, uint64_t c) const;

  FaultSpec spec_;
};

}  // namespace grace::faults
