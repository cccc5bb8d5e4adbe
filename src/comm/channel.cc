#include "comm/channel.h"

#include <cassert>
#include <chrono>

namespace grace::comm {

void Mailbox::put(Message msg) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

std::optional<Message> Mailbox::match_locked(int src, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      Message msg = std::move(*it);
      queue_.erase(it);
      return msg;
    }
  }
  return std::nullopt;
}

Message Mailbox::take(int src, int tag) {
  assert(!deadline_required_ &&
         "Mailbox::take without a deadline while a fault plan is active; "
         "use take_for()");
  for (;;) {
    if (auto msg = take_for(src, tag, 3600.0)) return std::move(*msg);
  }
}

std::optional<Message> Mailbox::take_for(int src, int tag, double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  std::unique_lock lock(mu_);
  for (;;) {
    if (auto msg = match_locked(src, tag)) return msg;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // Final scan: the match may have landed between the last scan and
      // the timeout firing.
      return match_locked(src, tag);
    }
  }
}

}  // namespace grace::comm
