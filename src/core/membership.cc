#include "core/membership.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/compressed.h"

namespace grace::core {

int MembershipView::live_rank(int physical) const {
  const auto it = std::lower_bound(ranks.begin(), ranks.end(), physical);
  if (it == ranks.end() || *it != physical) return -1;
  return static_cast<int>(it - ranks.begin());
}

MembershipSchedule::MembershipSchedule(
    int n_ranks, std::span<const faults::ChurnEvent> events)
    : MembershipSchedule(
          n_ranks, faults::FaultSpec{.churn = std::vector<faults::ChurnEvent>(
                                         events.begin(), events.end())}) {}

MembershipSchedule::MembershipSchedule(int n_ranks,
                                       const faults::FaultSpec& spec) {
  if (n_ranks < 1) {
    throw std::invalid_argument("MembershipSchedule: n_ranks must be >= 1");
  }
  MembershipView full;
  full.ranks.resize(static_cast<size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) full.ranks[static_cast<size_t>(r)] = r;
  views_.push_back(std::move(full));

  // Churn transitions start at iteration 0 of their epoch; the crash is one
  // more leave, at its own (epoch, iteration).
  struct Event { int epoch; int64_t iter; int rank; bool join; };
  std::vector<Event> events;
  for (const faults::ChurnEvent& e : spec.churn) {
    if (e.epoch < 1) {
      throw std::invalid_argument(
          "MembershipSchedule: churn epoch must be >= 1 (epoch 0 always "
          "starts at full strength)");
    }
    events.push_back({e.epoch, 0, e.rank, e.join});
  }
  if (spec.has_crash()) {
    events.push_back({spec.crash_epoch, spec.crash_iter, spec.crash_rank,
                      /*join=*/false});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return std::tie(a.epoch, a.iter) <
                            std::tie(b.epoch, b.iter);
                   });
  size_t at = 0;
  while (at < events.size()) {
    MembershipView next = views_.back();
    next.epoch_begin = events[at].epoch;
    next.iter_begin = events[at].iter;
    const int epoch = next.epoch_begin;
    // All events at the same boundary apply together, against the previous
    // view — a rank cannot leave and rejoin within one transition.
    while (at < events.size() && events[at].epoch == epoch &&
           events[at].iter == next.iter_begin) {
      const Event& e = events[at++];
      if (e.rank <= 0 || e.rank >= n_ranks) {
        throw std::invalid_argument(
            "MembershipSchedule: rank " + std::to_string(e.rank) +
            " outside [1, " + std::to_string(n_ranks) +
            ") — leavers and joiners must be non-root physical ranks of the "
            "original fleet");
      }
      const auto it =
          std::lower_bound(next.ranks.begin(), next.ranks.end(), e.rank);
      const bool present = it != next.ranks.end() && *it == e.rank;
      if (e.join) {
        if (present) {
          throw std::invalid_argument(
              "MembershipSchedule: rank " + std::to_string(e.rank) +
              " joins at epoch " + std::to_string(epoch) +
              " but is already a member");
        }
        next.ranks.insert(it, e.rank);
      } else {
        if (!present) {
          throw std::invalid_argument(
              "MembershipSchedule: rank " + std::to_string(e.rank) +
              " leaves at epoch " + std::to_string(epoch) +
              " but is not a member");
        }
        next.ranks.erase(it);
      }
    }
    if (next.ranks.empty() || next.ranks.front() != 0) {
      throw std::invalid_argument(
          "MembershipSchedule: every view must contain rank 0");
    }
    views_.push_back(std::move(next));
  }
}

const MembershipView& MembershipSchedule::view_at(int epoch,
                                                  int64_t iter) const {
  return views_[static_cast<size_t>(segment_at(epoch, iter))];
}

int MembershipSchedule::segment_at(int epoch, int64_t iter) const {
  int seg = 0;  // view 0, the full fleet, always exists
  for (size_t i = 1; i < views_.size(); ++i) {
    const MembershipView& v = views_[i];
    if (v.epoch_begin < epoch ||
        (v.epoch_begin == epoch && v.iter_begin <= iter)) {
      seg = static_cast<int>(i);
    }
  }
  return seg;
}

Tensor seal_bootstrap_frame(std::span<const float> params,
                            std::span<const Tensor> residuals,
                            std::span<const Tensor> optimizer_state) {
  CompressedTensor ct;
  ct.parts.reserve(1 + residuals.size() + optimizer_state.size());
  ct.parts.push_back(Tensor::from(params));
  ct.parts.insert(ct.parts.end(), residuals.begin(), residuals.end());
  ct.parts.insert(ct.parts.end(), optimizer_state.begin(),
                  optimizer_state.end());
  ct.ctx.ints = {static_cast<int64_t>(residuals.size()),
                 static_cast<int64_t>(optimizer_state.size())};
  // Honest wire accounting for the one-off transfer; the frame is raw.
  for (const Tensor& p : ct.parts) {
    ct.ctx.wire_bits += static_cast<uint64_t>(p.size_bytes()) * 8;
  }
  return serialize(ct);
}

BootstrapState open_bootstrap_frame(const Tensor& blob,
                                    std::span<const int64_t> slot_numels) {
  const CompressedTensor ct = deserialize(blob);  // throws on CRC mismatch
  const std::vector<int64_t>& counts = ct.ctx.ints;  // residuals, optimizer
  if (ct.parts.empty() || ct.parts.front().dtype() != DType::F32 ||
      counts.size() != 2 || counts[0] < 0 || counts[1] < 0 ||
      ct.parts.size() - 1 != static_cast<uint64_t>(counts[0]) +
                                 static_cast<uint64_t>(counts[1])) {
    throw std::runtime_error("open_bootstrap_frame: malformed sections");
  }
  BootstrapState out;
  const auto params = ct.parts.front().f32();
  out.params.assign(params.begin(), params.end());
  const auto residuals_end = ct.parts.begin() + 1 + counts[0];
  out.residuals.assign(ct.parts.begin() + 1, residuals_end);
  out.optimizer.assign(residuals_end, ct.parts.end());

  const size_t slots = slot_numels.size();
  std::span<const Tensor> buffers(out.optimizer);
  if (!buffers.empty() && buffers.back().dtype() == DType::I32 &&
      static_cast<size_t>(buffers.back().numel()) == slots) {
    buffers = buffers.first(buffers.size() - 1);
  }
  bool fits = buffers.empty() || (slots > 0 && buffers.size() % slots == 0);
  for (size_t i = 0; fits && i < buffers.size(); ++i) {
    fits = buffers[i].dtype() == DType::F32 &&
           buffers[i].numel() == slot_numels[i % slots];
  }
  const int64_t numel =
      std::reduce(slot_numels.begin(), slot_numels.end(), int64_t{0});
  if (!fits || (slots > 0 && numel != static_cast<int64_t>(params.size()))) {
    throw std::runtime_error(
        "open_bootstrap_frame: frame does not fit the joiner's parameter slots");
  }
  return out;
}

}  // namespace grace::core
