#include "comm/world.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace grace::comm {

World::World(int n) {
  assert(n >= 1);
  mailboxes_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
}

void World::install_faults(LinkFaults* faults) {
  faults_ = faults;
  for (auto& box : mailboxes_) box->require_deadline(faults != nullptr);
}

int Comm::size() const { return world_->size(); }

void Comm::send(int dst, Tensor payload, int tag) {
  world_->count_send(payload.size_bytes());
  if (LinkFaults* faults = world_->faults()) {
    faults->stage_attempts(*world_, rank_, dst, tag, payload);
  }
  world_->mailbox(dst).put(Message{rank_, tag, std::move(payload)});
}

Tensor Comm::recv(int src, int tag) {
  Mailbox& box = world_->mailbox(rank_);
  LinkFaults* const faults = world_->faults();
  if (faults == nullptr) return box.take(src, tag).payload;
  // Reliable-delivery loop: staged failed attempts arrive in attempt order
  // ahead of the clean copy (mailboxes are FIFO per (src, tag)); each one
  // is charged to the simulated clock and discarded. The real-time deadline
  // only guards liveness — a peer that crashed without a hand-off.
  for (;;) {
    auto msg = box.take_for(src, tag, faults->recv_deadline_s());
    if (!msg) {
      throw std::runtime_error(
          "comm: rank " + std::to_string(rank_) + " receive from rank " +
          std::to_string(src) +
          " exceeded the liveness deadline (crashed peer?)");
    }
    if (msg->fault != 0) {
      faults->on_failed_attempt(rank_, *msg);
      continue;
    }
    return std::move(msg->payload);
  }
}

}  // namespace grace::comm
