// Adaptive per-bucket compression controller (src/control, DESIGN.md §11):
// hysteresis-rule unit tests driven with synthetic signal windows,
// snapshot round-trips, and trainer-level determinism / resume /
// error-feedback carry-over contracts. Also covers the satellite APIs that
// ride along: the registry's unknown-spec error listing and the fidelity
// probe's totals accessor.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "control/controller.h"
#include "core/registry.h"
#include "sim/fidelity.h"
#include "sim/tasks.h"
#include "tensor/ops.h"

namespace grace {
namespace {

using control::ControlConfig;
using control::ControlDecision;
using control::Controller;

// --- Satellite: registry error message -----------------------------------

TEST(Registry, UnknownSpecListsRegisteredNamesSorted) {
  std::string message;
  try {
    core::make_compressor("definitely_not_a_compressor");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("unknown compressor: definitely_not_a_compressor"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("registered:"), std::string::npos) << message;
  // Every registered name is present, and the listing is sorted.
  std::vector<std::string> names = core::registered_names();
  for (const std::string& n : names) {
    EXPECT_NE(message.find(n), std::string::npos) << n << " in " << message;
  }
  std::sort(names.begin(), names.end());
  size_t prev = 0;
  for (const std::string& n : names) {
    const size_t at = message.find(n, prev);
    ASSERT_NE(at, std::string::npos) << n;
    prev = at;
  }
}

// --- Fidelity probe totals -------------------------------------------------

core::FidelitySample sample(const char* name, double cosine, double sign,
                            double residual, double grad, uint64_t wire,
                            uint64_t dense) {
  core::FidelitySample s;
  s.rank = 0;
  s.tensor = name;
  s.numel = 8;
  s.cosine_similarity = cosine;
  s.sign_agreement = sign;
  s.residual_l2 = residual;
  s.grad_l2 = grad;
  s.wire_bits = wire;
  s.dense_bits = dense;
  s.compression_ratio =
      wire > 0 ? static_cast<double>(dense) / static_cast<double>(wire) : 0.0;
  return s;
}

TEST(FidelityProbe, TotalsAreMonotonicSums) {
  sim::CompressionFidelityProbe probe(1);
  probe.on_sample(sample("w", 0.9, 0.8, 1.0, 2.0, 32, 256));
  probe.on_sample(sample("w", 0.7, 0.6, 3.0, 4.0, 64, 256));
  const auto t = probe.totals(0, "w");
  EXPECT_EQ(t.samples, 2);
  EXPECT_DOUBLE_EQ(t.cosine_sum, 1.6);
  EXPECT_DOUBLE_EQ(t.sign_sum, 1.4);
  EXPECT_DOUBLE_EQ(t.residual_sum, 4.0);
  EXPECT_DOUBLE_EQ(t.grad_sum, 6.0);
  EXPECT_EQ(t.wire_bits, 96u);
  EXPECT_EQ(t.dense_bits, 512u);
  // Unknown tensor / never-sampled rank: zero totals, not a throw.
  EXPECT_EQ(probe.totals(0, "nope").samples, 0);
}

// --- Hysteresis rule (synthetic signal windows) ---------------------------

// One bucket's 7-float signal slice encoding a window with `n` samples at
// the given mean cosine / sign agreement and residual-to-gradient ratio.
std::vector<float> signals_1bucket(float n, float cosine, float sign,
                                   float residual_rel) {
  return {n,       cosine * n, sign * n, residual_rel * n,
          1.0f * n, 32.0f * n,  256.0f * n};
}

// The controller's live state, read through its run summary.
int arm(const Controller& ctl, size_t bucket) {
  return ctl.summary().final_arms[bucket];
}
ControlDecision last_decision(const Controller& ctl) {
  return ctl.summary().decisions.back();
}

ControlConfig hysteresis_cfg() {
  ControlConfig cfg;
  cfg.arms = {"none", "topk(0.05)", "topk(0.01)"};
  cfg.start_arm = 1;
  cfg.cosine_floor = 0.85;
  cfg.sign_floor = 0.70;
  cfg.residual_ceiling = 4.0;
  cfg.band = 0.05;
  cfg.patience = 2;
  return cfg;
}

TEST(HysteresisPolicy, SustainedBreachStepsOneArmLighter) {
  Controller ctl(hysteresis_cfg(), {"bucket0"});
  const auto bad = signals_1bucket(8, 0.5f, 0.9f, 0.1f);
  // patience = 2: first breach waits, second switches 1 -> 0.
  EXPECT_TRUE(ctl.step(bad, 0, -1).empty());
  const auto switched = ctl.step(bad, 1, -1);
  ASSERT_EQ(switched.size(), 1u);
  EXPECT_EQ(switched[0].from_arm, 1);
  EXPECT_EQ(switched[0].to_arm, 0);
  EXPECT_EQ(switched[0].signal, "cosine<floor");
  EXPECT_EQ(arm(ctl, 0), 0);
  // Already at the lightest arm: further breaches hold.
  EXPECT_TRUE(ctl.step(bad, 2, -1).empty());
  EXPECT_TRUE(ctl.step(bad, 3, -1).empty());
  EXPECT_EQ(arm(ctl, 0), 0);
}

TEST(HysteresisPolicy, SustainedHeadroomStepsOneArmHeavier) {
  Controller ctl(hysteresis_cfg(), {"bucket0"});
  const auto good = signals_1bucket(8, 0.99f, 0.99f, 0.0f);
  EXPECT_TRUE(ctl.step(good, 0, -1).empty());
  const auto switched = ctl.step(good, 1, -1);
  ASSERT_EQ(switched.size(), 1u);
  EXPECT_EQ(switched[0].to_arm, 2);
  EXPECT_EQ(switched[0].signal, "headroom");
  // At the heaviest arm the streak can no longer promote.
  EXPECT_TRUE(ctl.step(good, 2, -1).empty());
  EXPECT_TRUE(ctl.step(good, 3, -1).empty());
  EXPECT_EQ(arm(ctl, 0), 2);
}

TEST(HysteresisPolicy, InBandWindowResetsStreaksNoFlapping) {
  Controller ctl(hysteresis_cfg(), {"bucket0"});
  const auto bad = signals_1bucket(8, 0.5f, 0.9f, 0.1f);
  // Inside the hysteresis band: above the floor but under floor + band.
  const auto inband = signals_1bucket(8, 0.87f, 0.9f, 0.1f);
  EXPECT_TRUE(ctl.step(bad, 0, -1).empty());     // breach streak 1
  EXPECT_TRUE(ctl.step(inband, 1, -1).empty());  // resets the streak
  EXPECT_TRUE(ctl.step(bad, 2, -1).empty());     // breach streak 1 again
  EXPECT_EQ(arm(ctl, 0), 1);                      // never switched
  EXPECT_EQ(last_decision(ctl).signal, "cosine<floor:wait");
}

TEST(HysteresisPolicy, EmptyWindowHoldsEverything) {
  Controller ctl(hysteresis_cfg(), {"bucket0"});
  const auto bad = signals_1bucket(8, 0.5f, 0.9f, 0.1f);
  const auto idle = signals_1bucket(0, 0.0f, 0.0f, 0.0f);
  EXPECT_TRUE(ctl.step(bad, 0, -1).empty());
  // Idle windows neither advance nor reset the breach streak.
  EXPECT_TRUE(ctl.step(idle, 1, -1).empty());
  EXPECT_EQ(last_decision(ctl).signal, "idle");
  const auto switched = ctl.step(bad, 2, -1);
  ASSERT_EQ(switched.size(), 1u);
  EXPECT_EQ(switched[0].to_arm, 0);
}

TEST(HysteresisPolicy, CheapBucketPinsToLightestArm) {
  ControlConfig cfg = hysteresis_cfg();
  cfg.start_arm = 2;
  cfg.cheap_bits = 1000.0;  // per-sample dense payload threshold
  Controller ctl(cfg, {"tiny", "big"});
  // Both buckets post comfortable windows; only "tiny" is under the
  // cheap-bits threshold (dense 256 bits/sample vs 2560).
  std::vector<float> sig;
  const float n = 8.0f;
  const auto tiny = std::vector<float>{n,        0.99f * n, 0.99f * n, 0.0f,
                                       1.0f * n, 32.0f * n, 256.0f * n};
  const auto big = std::vector<float>{n,        0.99f * n, 0.99f * n, 0.0f,
                                      1.0f * n, 320.0f * n, 2560.0f * n};
  sig.insert(sig.end(), tiny.begin(), tiny.end());
  sig.insert(sig.end(), big.begin(), big.end());
  const auto switched = ctl.step(sig, 0, -1);
  ASSERT_EQ(switched.size(), 1u);
  EXPECT_EQ(switched[0].bucket_name, "tiny");
  EXPECT_EQ(switched[0].to_arm, 0);
  EXPECT_EQ(switched[0].signal, "cheap");
  // The cheap bucket never promotes, however comfortable its windows; the
  // big bucket follows the ordinary hysteresis rules.
  ctl.step(sig, 1, -1);
  ctl.step(sig, 2, -1);
  EXPECT_EQ(arm(ctl, 0), 0);
  EXPECT_EQ(last_decision(ctl).bucket, 1);
}

TEST(ControllerStep, RejectsWrongSignalSize) {
  Controller ctl(hysteresis_cfg(), {"a", "b"});
  const auto one = signals_1bucket(8, 0.9f, 0.9f, 0.1f);
  EXPECT_THROW(ctl.step(one, 0, -1), std::invalid_argument);
}

// --- Snapshots ------------------------------------------------------------

TEST(ControllerSnapshot, RejectsCorruptOrMismatchedState) {
  Controller ctl(hysteresis_cfg(), {"bucket0"});
  ctl.step(signals_1bucket(8, 0.9f, 0.9f, 0.1f), 0, -1);
  const std::string snap = ctl.snapshot();

  auto resume_with = [](ControlConfig cfg, const std::string& state,
                        std::vector<std::string> names) {
    cfg.resume_state = state;
    Controller c(cfg, std::move(names));
  };
  // Bad magic.
  EXPECT_THROW(resume_with(hysteresis_cfg(), "garbage", {"bucket0"}),
               std::invalid_argument);
  // A snapshot of the v1 grammar (which also recorded a policy and an RNG
  // position) fails on its magic.
  std::string v1 = snap;
  ASSERT_EQ(v1.rfind("grace.control.v2;", 0), 0u);
  v1.replace(0, 16, "grace.control.v1");
  EXPECT_THROW(resume_with(hysteresis_cfg(), v1, {"bucket0"}),
               std::invalid_argument);
  // Bucket-plan mismatch.
  EXPECT_THROW(resume_with(hysteresis_cfg(), snap, {"other_bucket"}),
               std::invalid_argument);
  // Arm-set mismatch.
  ControlConfig fewer = hysteresis_cfg();
  fewer.arms = {"none", "topk(0.05)"};
  fewer.start_arm = 0;
  EXPECT_THROW(resume_with(fewer, snap, {"bucket0"}), std::invalid_argument);
  // Valid state restores cleanly.
  ControlConfig ok = hysteresis_cfg();
  ok.resume_state = snap;
  Controller resumed(ok, {"bucket0"});
  EXPECT_EQ(resumed.boundaries(), 1);
}

// `snap` with the value of its `key=` field replaced.
std::string with_field(const std::string& snap, const std::string& key,
                       const std::string& value) {
  const size_t at = snap.find(";" + key + "=");
  if (at == std::string::npos) return snap;
  const size_t begin = at + key.size() + 2;
  const size_t end = snap.find(';', begin);
  return snap.substr(0, begin) + value +
         (end == std::string::npos ? "" : snap.substr(end));
}

TEST(ControllerSnapshot, RejectsOutOfRangeCounts) {
  // Ten breaching boundaries over one bucket: the second switches 1 -> 0,
  // the other eight grow the breach streak on the lightest arm. At most
  // ten switches, and no streak longer than ten.
  Controller ctl(hysteresis_cfg(), {"bucket0"});
  const auto bad = signals_1bucket(8, 0.5f, 0.9f, 0.1f);
  for (int i = 0; i < 10; ++i) ctl.step(bad, i, -1);
  const std::string snap = ctl.snapshot();
  ASSERT_NE(snap.find(";b=0|8:0"), std::string::npos) << snap;
  auto resume = [](const std::string& state) {
    ControlConfig cfg = hysteresis_cfg();
    cfg.resume_state = state;
    Controller c(cfg, {"bucket0"});
  };
  EXPECT_NO_THROW(resume(snap));
  EXPECT_THROW(resume(with_field(snap, "boundaries", "-1")),
               std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "boundaries", "2147483648")),
               std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "switches", "-1")),
               std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "switches", "11")),
               std::invalid_argument);
  EXPECT_NO_THROW(resume(with_field(snap, "switches", "10")));
  // Bucket entries are "<arm>|<worse>:<better>".
  EXPECT_THROW(resume(with_field(snap, "b", "0|-1:0")), std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "b", "0|11:0")), std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "b", "0|0:11")), std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "b", "3|0:0")), std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "b", "0|0")), std::invalid_argument);
  EXPECT_THROW(resume(with_field(snap, "b", "0")), std::invalid_argument);
  EXPECT_NO_THROW(resume(with_field(snap, "b", "2|10:10")));
}

TEST(ControllerSnapshot, RestoresAPendingStreak) {
  // Cut after the first of two breaching windows (patience = 2): the
  // restored controller carries the streak and switches on the next
  // breach, exactly as the uninterrupted one does.
  Controller full(hysteresis_cfg(), {"bucket0"});
  const auto bad = signals_1bucket(8, 0.5f, 0.9f, 0.1f);
  EXPECT_TRUE(full.step(bad, 0, -1).empty());
  ControlConfig cfg = hysteresis_cfg();
  cfg.resume_state = full.snapshot();
  Controller resumed(cfg, {"bucket0"});
  const auto a = full.step(bad, 1, -1);
  const auto b = resumed.step(bad, 1, -1);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(control::control_decisions_json(a),
            control::control_decisions_json(b));
  EXPECT_EQ(resumed.snapshot(), full.snapshot());
}

// --- Trainer integration ---------------------------------------------------

sim::Benchmark tiny_cnn() { return sim::make_cnn_classification(0.1); }

sim::TrainConfig controller_config(const sim::Benchmark& b, int workers) {
  sim::TrainConfig cfg = sim::default_config(b);
  cfg.n_workers = workers;
  cfg.net.n_workers = workers;
  cfg.epochs = 2;
  cfg.grace.compressor_spec = "topk(0.05)";
  cfg.grace.control.arms = {"none", "topk(0.05)"};
  cfg.grace.control.start_arm = 1;
  cfg.grace.control.decide_every_iters = 2;
  return cfg;
}

TEST(TrainerControl, SameSeedYieldsByteIdenticalDecisionLogs) {
  sim::Benchmark b = tiny_cnn();
  sim::TrainConfig cfg = controller_config(b, 2);
  // Floors chosen so real top-k fidelity signals land on both sides.
  cfg.grace.control.cosine_floor = 0.4;
  sim::RunResult r1 = train(b.factory, cfg);
  sim::RunResult r2 = train(b.factory, cfg);
  EXPECT_TRUE(r1.control.enabled);
  EXPECT_GT(r1.control.boundaries, 0);
  EXPECT_FALSE(r1.control.decisions.empty());
  EXPECT_EQ(control::control_decisions_json(r1.control.decisions),
            control::control_decisions_json(r2.control.decisions));
  EXPECT_EQ(r1.control.state, r2.control.state);
  EXPECT_EQ(r1.parameters_crc32, r2.parameters_crc32);
  EXPECT_TRUE(r1.replicas_in_sync);
}

TEST(TrainerControl, CrashParksTheCasualtyOutOfTheDecisionLoop) {
  // The crash casualty parks like a churn leaver and stops stepping its
  // controller; the survivors keep deciding in lockstep over the survivor
  // world, so the run ends on one agreed decision log and replays.
  sim::Benchmark b = tiny_cnn();
  sim::TrainConfig cfg = controller_config(b, 3);
  cfg.grace.control.cosine_floor = 0.4;
  faults::FaultSpec spec;
  spec.crash_rank = 2;
  spec.crash_epoch = 0;
  spec.crash_iter = 1;
  const faults::FaultPlan plan(spec);
  cfg.faults = &plan;
  sim::RunResult r1 = train(b.factory, cfg);
  sim::RunResult r2 = train(b.factory, cfg);
  EXPECT_EQ(r1.faults.crashed_ranks, 1u);
  EXPECT_TRUE(r1.control.enabled);
  EXPECT_GT(r1.control.boundaries, 0);
  EXPECT_TRUE(r1.replicas_in_sync);
  EXPECT_EQ(control::control_decisions_json(r1.control.decisions),
            control::control_decisions_json(r2.control.decisions));
  EXPECT_EQ(r1.parameters_crc32, r2.parameters_crc32);
}

TEST(TrainerControl, OneArmControllerMatchesUncontrolledRunBitForBit) {
  // A one-arm controller cannot switch, so running it through the whole
  // controller machinery — probe attach, per-bucket override routing,
  // boundary allreduces — must not perturb training at all.
  sim::Benchmark b = tiny_cnn();
  sim::TrainConfig plain = sim::default_config(b);
  plain.n_workers = 2;
  plain.net.n_workers = 2;
  plain.epochs = 2;
  plain.grace.compressor_spec = "topk(0.05)";
  sim::RunResult base = train(b.factory, plain);

  sim::TrainConfig ctl = plain;
  ctl.grace.control.arms = {"topk(0.05)"};
  sim::RunResult run = train(b.factory, ctl);

  EXPECT_TRUE(run.control.enabled);
  EXPECT_EQ(run.control.switches, 0);
  EXPECT_EQ(run.final_parameters, base.final_parameters);
  EXPECT_EQ(run.parameters_crc32, base.parameters_crc32);
}

TEST(TrainerControl, ForcedSwitchWithErrorFeedbackIsDeterministic) {
  // Force a switch at the very first boundary (impossible cosine floor)
  // with error feedback on, so a residual is pending when the arm changes:
  // the next arm's compensation absorbs it, identically on every run.
  sim::Benchmark b = tiny_cnn();
  sim::TrainConfig cfg = controller_config(b, 2);
  cfg.grace.error_feedback = true;
  cfg.grace.control.cosine_floor = 0.999;
  cfg.grace.control.patience = 1;
  sim::RunResult r1 = train(b.factory, cfg);
  sim::RunResult r2 = train(b.factory, cfg);
  ASSERT_GT(r1.control.switches, 0);
  EXPECT_EQ(r1.parameters_crc32, r2.parameters_crc32);
  EXPECT_TRUE(r1.replicas_in_sync);
}

TEST(TrainerControl, ResumeReplaysDecisionTailAndWeightsExactly) {
  // The crash-rebind hand-off contract: a run resumed at an epoch boundary
  // from (weights, controller state) must replay the original run's
  // decision tail and final weights bit-for-bit. Error feedback stays off —
  // a resumed worker starts with empty residuals, so EF state is not part
  // of the hand-off contract (same as the resilience hand-off tests).
  sim::Benchmark b = tiny_cnn();
  sim::TrainConfig cfg = controller_config(b, 2);
  cfg.grace.error_feedback = false;
  // Stateless SGD: a momentum buffer is not part of the (weights,
  // controller state) hand-off and would break the exact equivalence.
  cfg.optimizer.type = optim::OptimizerType::Sgd;
  cfg.optimizer.lr = 0.02;
  cfg.epochs = 4;
  cfg.grace.control.cosine_floor = 0.4;
  sim::RunResult full = train(b.factory, cfg);

  sim::TrainConfig stage_cfg = cfg;
  stage_cfg.epochs = 2;
  sim::RunResult stage = train(b.factory, stage_cfg);

  std::vector<float> saved = stage.final_parameters;
  sim::ReplicaFactory resumed_factory = [&b, saved](uint64_t seed) {
    auto model = b.factory(seed);
    size_t at = 0;
    for (auto& p : model->module().parameters()) {
      auto v = p.value->data.f32();
      std::copy_n(saved.begin() + static_cast<int64_t>(at), v.size(),
                  v.begin());
      at += v.size();
    }
    return model;
  };
  sim::TrainConfig resume_cfg = cfg;
  resume_cfg.epochs = 2;
  resume_cfg.start_epoch = 2;
  resume_cfg.grace.control.resume_state = stage.control.state;
  sim::RunResult cont = train(resumed_factory, resume_cfg);

  EXPECT_EQ(cont.parameters_crc32, full.parameters_crc32);
  EXPECT_EQ(cont.final_parameters, full.final_parameters);
  EXPECT_EQ(cont.control.state, full.control.state);

  // Decision tail: the resumed log is exactly the full log's entries from
  // the hand-off boundary on, labels included.
  const int cut = stage.control.boundaries;
  std::vector<ControlDecision> tail;
  for (const ControlDecision& d : full.control.decisions) {
    if (d.boundary >= cut) tail.push_back(d);
  }
  EXPECT_EQ(control::control_decisions_json(cont.control.decisions),
            control::control_decisions_json(tail));
}

}  // namespace
}  // namespace grace
