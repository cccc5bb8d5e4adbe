// In-process message passing. Each rank owns a Mailbox; sends enqueue a
// copy of the tensor into the destination's mailbox; receives block until a
// message matching (src, tag) arrives. Tags keep concurrent collectives on
// the same ranks from interleaving.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "tensor/tensor.h"

namespace grace::comm {

struct Message {
  int src = -1;
  int tag = 0;
  Tensor payload;
  // Fault-injection metadata (src/faults). fault != 0 marks a simulated
  // failed delivery attempt staged ahead of the clean copy; reliable
  // receivers discard such messages after charging their simulated cost.
  // 0 (the default everywhere else) means a clean delivery.
  uint8_t fault = 0;          // faults::kAttemptDropped / kAttemptCorrupt
  uint16_t attempt = 0;       // 0-based retry index of this attempt
  uint64_t fault_bytes = 0;   // payload bytes the failed attempt carried
};

class Mailbox {
 public:
  void put(Message msg);
  // Blocks until a message from `src` with `tag` is available, removes and
  // returns it. Messages from other (src, tag) pairs are left queued.
  Message take(int src, int tag);
  // Like take(), but gives up after `timeout_s` seconds of real waiting and
  // returns nullopt — the liveness guard behind docs/RESILIENCE.md. The
  // timeout is wall-clock (thread scheduling), not simulated time.
  std::optional<Message> take_for(int src, int tag, double timeout_s);

  // While a fault plan is installed on the World, every receive must carry
  // a deadline; bare take() asserts in debug builds so an unbounded wait on
  // a crashed peer cannot hide in a collective.
  void require_deadline(bool on) { deadline_required_ = on; }

 private:
  // Removes and returns the first queued (src, tag) match; mu_ must be held.
  std::optional<Message> match_locked(int src, int tag);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool deadline_required_ = false;
};

}  // namespace grace::comm
