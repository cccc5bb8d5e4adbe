// Adaptive-compression controller knobs (DESIGN.md §11). Pure data with no
// dependencies beyond the standard library so that core::GraceConfig can
// embed it (`cfg.grace.control`) without core depending on the controller
// implementation; the machinery itself lives in control/controller.h and is
// driven by the trainer.
//
// The controller is off by default (`arms` empty): every run then behaves
// exactly as before — one compressor, pinned for the whole model for the
// whole run. Setting `arms` turns it on: the trainer instantiates one
// deterministic Controller per rank, feeds it cross-rank-aggregated
// fidelity signals at decision boundaries, and switches each fusion
// bucket's compressor between the listed arms by the hysteresis rule
// below. On a switch the bucket's error-feedback residual carries over:
// the next arm's compensation folds it into its first compressed gradient.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace grace::control {

struct ControlConfig {
  // Candidate compressor specs, ordered lightest (index 0, e.g. "none")
  // to heaviest compression. Empty disables the controller entirely.
  std::vector<std::string> arms;

  // Arm every bucket starts on (index into `arms`).
  int start_arm = 0;

  // Intra-epoch decision cadence: a boundary after every k-th iteration of
  // an epoch (0 = decisions at epoch ends only). Epoch ends are always
  // boundaries — the crash/resume hand-off contract depends on it.
  int decide_every_iters = 0;

  // Hysteresis thresholds. A bucket whose signal window breaches any
  // floor/ceiling for `patience` consecutive boundaries steps one arm
  // lighter; a window clearing every threshold by the hysteresis `band`
  // for `patience` boundaries steps one arm heavier. Windows in between
  // reset both streaks, so decisions cannot flap across a noisy boundary.
  double cosine_floor = 0.85;
  double sign_floor = 0.70;
  double residual_ceiling = 4.0;  // window residual_l2 / grad_l2 ceiling
  double band = 0.05;
  int patience = 1;
  // Cheap-bucket rule: a bucket whose dense payload is under this many
  // bits pins to the lightest arm (index 0) and never promotes —
  // compressing a negligible payload buys no measurable wire time but
  // still pays the full fidelity cost (biases and small early layers are
  // the classic case). 0 disables the rule.
  double cheap_bits = 0.0;

  // Controller::snapshot() of a prior run (RunResult::control.state): a
  // run resumed via TrainConfig::start_epoch restores arm assignments and
  // streaks from it and replays the original run's decision tail exactly.
  std::string resume_state;

  bool enabled() const { return !arms.empty(); }

  // Shallow validation (throws std::invalid_argument); the trainer
  // additionally instantiates every arm spec up front so a typo fails on
  // the main thread, not inside a worker.
  void validate() const {
    if (arms.empty()) {
      throw std::invalid_argument("ControlConfig: validate() on a disabled "
                                  "controller (arms is empty)");
    }
    if (start_arm < 0 || static_cast<size_t>(start_arm) >= arms.size()) {
      throw std::invalid_argument("ControlConfig: start_arm out of range");
    }
    if (decide_every_iters < 0) {
      throw std::invalid_argument("ControlConfig: decide_every_iters < 0");
    }
    if (patience < 1) throw std::invalid_argument("ControlConfig: patience < 1");
    if (band < 0.0) throw std::invalid_argument("ControlConfig: band < 0");
    if (cheap_bits < 0.0) {
      throw std::invalid_argument("ControlConfig: cheap_bits < 0");
    }
  }
};

}  // namespace grace::control
