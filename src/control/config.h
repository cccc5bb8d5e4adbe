// Adaptive-compression controller settings (DESIGN.md §11). Pure data with
// no dependencies beyond the standard library so that core::GraceConfig
// can embed it (`cfg.grace.control`) without core depending on the
// controller implementation; the machinery itself lives in
// control/controller.h and is driven by the trainer.
//
// The controller is off by default (`arms` empty): every run then behaves
// exactly as before — one compressor, pinned for the whole model for the
// whole run. Setting `arms` turns it on: the trainer instantiates one
// deterministic Controller per rank, feeds it cross-rank-aggregated
// fidelity signals at every decision boundary, and steps each fusion
// bucket's compressor from the heaviest arm towards the lightest by the
// ratchet in controller.h. On a switch the bucket's error-feedback
// residual carries over: the next arm's compensation folds it into its
// first compressed gradient.
#pragma once

#include <string>
#include <vector>

namespace grace::control {

struct ControlConfig {
  // Candidate compressor specs, ordered lightest (index 0, e.g. "none")
  // to heaviest compression. Empty disables the controller entirely; the
  // trainer instantiates every spec up front so a typo fails on the
  // caller's thread, not inside a worker.
  std::vector<std::string> arms;

  // Controller::snapshot() of a prior run (RunResult::control.state): a
  // run resumed via TrainConfig::start_epoch restores arm assignments and
  // breach streaks from it and replays the original run's decision tail
  // exactly.
  std::string resume_state;

  bool enabled() const { return !arms.empty(); }
};

}  // namespace grace::control
