#include "faults/injector.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/crc32.h"

namespace grace::faults {

FaultInjector::FaultInjector(const FaultPlan* plan,
                             const comm::NetworkModel& net, int n_ranks)
    : plan_(plan), net_(net), ranks_(static_cast<size_t>(n_ranks)) {
  for (auto& slot : ranks_) {
    slot.link_seq.assign(static_cast<size_t>(n_ranks), 0);
  }
}

void FaultInjector::stage_attempts(comm::World& world, int src, int dst,
                                   int tag, const Tensor& payload) {
  RankSlot& slot = ranks_.at(static_cast<size_t>(src));
  const uint64_t seq = slot.link_seq.at(static_cast<size_t>(dst))++;

  // Corruption is only injectable into CRC-framed blobs — flipping a bit in
  // a raw float payload would be *undetectable* and silently aggregated,
  // which is exactly the failure the frame check exists to rule out. For
  // unframed payloads a corrupt draw degrades to a drop (the link losing
  // the packet instead of damaging it). Framing is checked lazily, only
  // when a corrupt outcome is actually drawn.
  int framed = -1;  // -1 unknown, 0 no, 1 yes
  for (int attempt = 0; attempt <= plan_->spec().max_retries; ++attempt) {
    uint8_t outcome = plan_->attempt_outcome(src, dst, seq, attempt);
    if (outcome == 0) break;
    if (outcome == kAttemptCorrupt) {
      if (framed < 0) {
        framed = payload.dtype() == DType::U8 &&
                         util::frame_crc_ok(payload.bytes())
                     ? 1
                     : 0;
      }
      if (framed == 0) outcome = kAttemptDropped;
    }
    comm::Message attempt_msg;
    attempt_msg.src = src;
    attempt_msg.tag = tag;
    attempt_msg.fault = outcome;
    attempt_msg.attempt = static_cast<uint16_t>(std::min(attempt, 0xFFFF));
    attempt_msg.fault_bytes = payload.size_bytes();
    if (outcome == kAttemptCorrupt) {
      Tensor damaged = payload;
      const uint64_t bit = plan_->corrupt_bit(src, dst, seq, attempt,
                                              damaged.size_bytes() * 8);
      damaged.bytes()[bit / 8] ^= std::byte{1} << (bit % 8);
      attempt_msg.payload = std::move(damaged);
    }
    // The failed attempt really crossed the wire: it counts as transport
    // traffic even though no clean data arrived.
    world.count_send(attempt_msg.fault_bytes);
    ++slot.counters.attempts_staged;
    slot.counters.retransmitted_bytes += attempt_msg.fault_bytes;
    world.mailbox(dst).put(std::move(attempt_msg));
  }
}

void FaultInjector::on_failed_attempt(int receiver,
                                      const comm::Message& attempt) {
  RankSlot& slot = ranks_.at(static_cast<size_t>(receiver));
  FaultCounters& c = slot.counters;
  ++c.retries;
  double stall = net_.retransmit_seconds(attempt.fault_bytes);
  if (attempt.fault == kAttemptCorrupt) {
    // Honest detection: the flipped bit must actually fail the frame CRC —
    // if it passed, the corruption would have been silently aggregated and
    // the whole NACK accounting below would be fiction.
    if (util::frame_crc_ok(attempt.payload.bytes())) {
      throw std::logic_error(
          "fault injector: a corrupted frame passed its CRC32 check");
    }
    ++c.corruptions_detected;
  } else {
    ++c.drops_detected;
    // A lost attempt is only discovered when the receiver's retry timer
    // expires; exponential backoff doubles the wait each retry.
    const int shift = std::min<int>(attempt.attempt, 20);
    stall += plan_->spec().retry_timeout_s *
             static_cast<double>(uint64_t{1} << shift);
  }
  c.retry_stall_s += stall;
  slot.pending_stall_s += stall;
}

double FaultInjector::drain_stall(int rank) {
  RankSlot& slot = ranks_.at(static_cast<size_t>(rank));
  return std::exchange(slot.pending_stall_s, 0.0);
}

FaultCounters FaultInjector::totals() const {
  FaultCounters total;
  for (const RankSlot& slot : ranks_) total += slot.counters;
  return total;
}

}  // namespace grace::faults
