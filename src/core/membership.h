// Membership epochs (docs/RESILIENCE.md): the one model of who is in the
// world. A MembershipSchedule turns a FaultSpec's churn events — and its
// crash, which is a leave of crash_rank at (crash_epoch, crash_iter) —
// into an ordered sequence of world views. Each view is the set of
// physical ranks alive from its (epoch, iteration) start until the next
// view's; churn transitions start at iteration 0 of their epoch, a crash
// may cut an epoch. Views can shrink (leaves) AND grow (joins); rank 0 is
// pinned alive in every view. Because events carry ABSOLUTE coordinates, a
// `start_epoch` resume under the same spec replays exactly the tail of the
// schedule, which is what makes staged elastic (and crashed) runs
// bit-equal to uninterrupted ones.
//
// Joiners bootstrap their model parameters, error-feedback residuals and
// optimizer state from the surviving rank 0 via a CRC-sealed frame on the
// existing serialize/deserialize path (core/compressed.h):
// seal_bootstrap_frame on the survivor, one point-to-point send,
// open_bootstrap_frame on the joiner. Residuals travel positionally in
// fusion-bucket order and optimizer state in optim::Optimizer::export_state
// order — both sides iterate the same bucket plan and parameter slots, so
// names need not be encoded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faults/fault_plan.h"
#include "tensor/tensor.h"

namespace grace::core {

struct MembershipView {
  int epoch_begin = 0;     // first absolute epoch this view governs...
  int64_t iter_begin = 0;  // ...from this iteration of it on
  std::vector<int> ranks;  // physical ranks, ascending; always contains 0

  int size() const { return static_cast<int>(ranks.size()); }
  bool contains(int physical) const { return live_rank(physical) >= 0; }
  // Contiguous live rank of a physical rank in this view, or -1 if absent.
  int live_rank(int physical) const;
};

class MembershipSchedule {
 public:
  // Full fleet {0..n_ranks-1} from (0, 0); churn events applied in epoch
  // order, each at iteration 0 of its epoch. Throws std::invalid_argument
  // on inconsistent plans: epoch < 1, rank outside [1, n_ranks), leave of
  // an absent rank, join of a present rank, or a view that would drop to
  // zero members.
  MembershipSchedule(int n_ranks, std::span<const faults::ChurnEvent> events);
  // The whole membership story of a fault spec: its churn events plus, when
  // it plans a crash, the leave of crash_rank at (crash_epoch, crash_iter).
  // Same validation, except that a crash may fall in epoch 0.
  MembershipSchedule(int n_ranks, const faults::FaultSpec& spec);

  bool elastic() const { return views_.size() > 1; }
  const std::vector<MembershipView>& views() const { return views_; }
  // The view governing iteration `iter` of absolute epoch `epoch` (the last
  // view starting at or before it) and its index in views().
  const MembershipView& view_at(int epoch, int64_t iter = 0) const;
  int segment_at(int epoch, int64_t iter = 0) const;

 private:
  std::vector<MembershipView> views_;
};

// Join-bootstrap frames: flattened parameters, the sender's EF residuals
// (in bucket order) and its optimizer state (optim::Optimizer::export_state),
// each section counted, sealed with the CRC-32 trailer of
// core/compressed.h serialize(). open_bootstrap_frame verifies the CRC and
// the section counts, and checks the frame against the joiner's parameter
// slots `slot_numels`: the parameters must fill them (when given), and the
// optimizer section must hold f32 tensors that cycle through the slots'
// sizes, optionally followed by one i32 tensor of one entry per slot. Any
// failure throws std::runtime_error, so a joiner can never install a
// damaged or mismatched model.
Tensor seal_bootstrap_frame(std::span<const float> params,
                            std::span<const Tensor> residuals,
                            std::span<const Tensor> optimizer_state = {});

struct BootstrapState {
  std::vector<float> params;
  std::vector<Tensor> residuals;  // same order they were sealed in
  std::vector<Tensor> optimizer;  // optim::Optimizer::export_state order
};
BootstrapState open_bootstrap_frame(const Tensor& blob,
                                    std::span<const int64_t> slot_numels = {});

}  // namespace grace::core
