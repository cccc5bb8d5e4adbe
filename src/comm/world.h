// A World is the set of communication endpoints for n ranks (one per
// worker thread), analogous to an MPI communicator. Comm is the per-rank
// handle used inside worker threads.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "comm/channel.h"

namespace grace::comm {

class World;

// Hook interface for the deterministic fault-injection subsystem
// (src/faults, docs/RESILIENCE.md). Installed on a World and consulted by
// every Comm::send / Comm::recv — a single pointer test when absent.
// Implementations must be deterministic: decisions may depend only on
// (plan seed, link, per-link sequence number), never on wall clock.
class LinkFaults {
 public:
  virtual ~LinkFaults() = default;
  // Sender side, called before the clean payload is enqueued: stage any
  // simulated failed delivery attempts (flagged Messages) for dst.
  virtual void stage_attempts(World& world, int src, int dst, int tag,
                              const Tensor& payload) = 0;
  // Receiver side: `receiver` consumed and discarded a flagged attempt;
  // charge its simulated detection + retransmission cost.
  virtual void on_failed_attempt(int receiver, const Message& attempt) = 0;
  // Real-time receive deadline (liveness guard against a crashed peer).
  // Simulated retry waits are charged via on_failed_attempt, never waited.
  virtual double recv_deadline_s() const = 0;
};

class Comm {
 public:
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;

  void send(int dst, Tensor payload, int tag = 0);
  Tensor recv(int src, int tag = 0);

 private:
  World* world_;
  int rank_;
};

class World {
 public:
  explicit World(int n);

  int size() const { return static_cast<int>(mailboxes_.size()); }
  Comm comm(int rank) { return Comm(this, rank); }
  Mailbox& mailbox(int rank) { return *mailboxes_.at(static_cast<size_t>(rank)); }

  // Install (nullptr clears) the fault-injection hooks; not owned. While
  // installed, receives carry a deadline and bare Mailbox::take asserts in
  // debug builds.
  void install_faults(LinkFaults* faults);
  LinkFaults* faults() const { return faults_; }

  // World-wide transport counters: every send() from any rank (including
  // collective internals) increments these. They live in the World, not
  // in the Comm handles, because Comm is passed by value and a per-handle
  // count would lose every message sent through a copy.
  void count_send(size_t payload_bytes) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
  }
  uint64_t messages_sent() const {
    return messages_.load(std::memory_order_relaxed);
  }
  uint64_t payload_bytes_sent() const {
    return payload_bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  LinkFaults* faults_ = nullptr;
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> payload_bytes_{0};
};

}  // namespace grace::comm
