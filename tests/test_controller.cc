// Adaptive per-bucket compression controller (src/control, DESIGN.md §11):
// ratchet-rule unit tests driven with synthetic two-float signal windows,
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

core::FidelitySample sample(const char* name, double cosine) {
  core::FidelitySample s;
  s.rank = 0;
  s.tensor = name;
  s.numel = 8;
  s.cosine_similarity = cosine;
  return s;
}

TEST(FidelityProbe, TotalsAreMonotonicSums) {
  sim::CompressionFidelityProbe probe(1);
  probe.on_sample(sample("w", 0.9));
  probe.on_sample(sample("w", 0.7));
  probe.on_sample(sample("v", 0.5));
  const auto t = probe.totals(0, "w");
  EXPECT_EQ(t.samples, 2);
  EXPECT_DOUBLE_EQ(t.cosine_sum, 1.6);
  probe.on_sample(sample("w", 0.25));
  EXPECT_EQ(probe.totals(0, "w").samples, 3);
  EXPECT_DOUBLE_EQ(probe.totals(0, "w").cosine_sum, 1.85);
  EXPECT_EQ(probe.totals(0, "v").samples, 1);
  // Unknown tensor / never-sampled rank: zero totals, not a throw.
  EXPECT_EQ(probe.totals(0, "nope").samples, 0);
  EXPECT_EQ(probe.totals(0, "nope").cosine_sum, 0.0);
}

// --- The ratchet (synthetic signal windows) --------------------------------

// A bucket far over the cheap-bucket threshold, and one just under it.
constexpr int64_t kBigNumel = 4096;
constexpr int64_t kCheapNumel =
    static_cast<int64_t>(Controller::kCheapBits / 32.0) - 1;

// One bucket's two-float signal slice: a window of `n` samples at the
// given mean cosine.
std::vector<float> window(float n, float cosine) { return {n, cosine * n}; }

const std::vector<float> kBreach = window(8, 0.5f);   // under the floor
const std::vector<float> kInBand = window(8, 0.9f);   // at or over it
const std::vector<float> kIdle = window(0, 0.0f);     // no samples

// The controller's live state, read through its run summary.
int arm(const Controller& ctl, size_t bucket) {
  return ctl.summary().final_arms[bucket];
}
ControlDecision last_decision(const Controller& ctl) {
  return ctl.summary().decisions.back();
}

ControlConfig three_arms() {
  ControlConfig cfg;
  cfg.arms = {"none", "topk(0.05)", "topk(0.01)"};
  return cfg;
}

TEST(Ratchet, StartsOnTheHeaviestArm) {
  Controller ctl(three_arms(), {"a", "b"}, {kBigNumel, kCheapNumel});
  EXPECT_EQ(arm(ctl, 0), 2);
  EXPECT_EQ(arm(ctl, 1), 2);
  EXPECT_EQ(ctl.arm_spec(0), "topk(0.01)");
  EXPECT_EQ(ctl.signal_size(), 4u);
}

TEST(Ratchet, TwoConsecutiveBreachesStepOneArmLighter) {
  static_assert(Controller::kPatience == 2);
  Controller ctl(three_arms(), {"bucket0"}, {kBigNumel});
  // The first breach waits, the second switches 2 -> 1.
  EXPECT_TRUE(ctl.step(kBreach, 0, -1).empty());
  EXPECT_EQ(last_decision(ctl).signal, "cosine<floor:wait");
  const auto switched = ctl.step(kBreach, 1, -1);
  ASSERT_EQ(switched.size(), 1u);
  EXPECT_EQ(switched[0].from_arm, 2);
  EXPECT_EQ(switched[0].to_arm, 1);
  EXPECT_EQ(switched[0].signal, "cosine<floor");
  // The switch restarts the streak: two more breaches step 1 -> 0.
  EXPECT_TRUE(ctl.step(kBreach, 2, -1).empty());
  ASSERT_EQ(ctl.step(kBreach, 3, -1).size(), 1u);
  EXPECT_EQ(arm(ctl, 0), 0);
  // At the lightest arm further breaches hold.
  for (int i = 4; i < 8; ++i) EXPECT_TRUE(ctl.step(kBreach, i, -1).empty());
  EXPECT_EQ(arm(ctl, 0), 0);
  EXPECT_EQ(last_decision(ctl).signal, "cosine<floor:wait");
  EXPECT_EQ(ctl.summary().switches, 2);
}

TEST(Ratchet, InBandWindowResetsTheStreak) {
  Controller ctl(three_arms(), {"bucket0"}, {kBigNumel});
  EXPECT_TRUE(ctl.step(kBreach, 0, -1).empty());  // streak 1
  EXPECT_TRUE(ctl.step(kInBand, 1, -1).empty());  // resets it
  EXPECT_EQ(last_decision(ctl).signal, "in-band");
  EXPECT_TRUE(ctl.step(kBreach, 2, -1).empty());  // streak 1 again
  EXPECT_EQ(last_decision(ctl).signal, "cosine<floor:wait");
  EXPECT_EQ(arm(ctl, 0), 2);
  // However comfortable its windows, a bucket never steps heavier.
  ctl.step(kBreach, 3, -1);
  for (int i = 4; i < 8; ++i) {
    EXPECT_TRUE(ctl.step(window(8, 1.0f), i, -1).empty());
  }
  EXPECT_EQ(arm(ctl, 0), 1);
}

TEST(Ratchet, IdleWindowHoldsArmAndStreak) {
  Controller ctl(three_arms(), {"bucket0"}, {kBigNumel});
  EXPECT_TRUE(ctl.step(kBreach, 0, -1).empty());
  // An idle window neither advances nor resets the breach streak.
  EXPECT_TRUE(ctl.step(kIdle, 1, -1).empty());
  EXPECT_EQ(last_decision(ctl).signal, "idle");
  EXPECT_EQ(arm(ctl, 0), 2);
  const auto switched = ctl.step(kBreach, 2, -1);
  ASSERT_EQ(switched.size(), 1u);
  EXPECT_EQ(switched[0].to_arm, 1);
}

TEST(Ratchet, CheapBucketPinsToArmZeroAndStays) {
  // "tiny" is one element under the threshold; "edge" sits exactly on it
  // (625 * 32 = 20000 bits), which is not under it.
  const int64_t edge = static_cast<int64_t>(Controller::kCheapBits / 32.0);
  Controller ctl(three_arms(), {"tiny", "edge"}, {kCheapNumel, edge});
  auto both = [](const std::vector<float>& tiny,
                 const std::vector<float>& other) {
    std::vector<float> sig = tiny;
    sig.insert(sig.end(), other.begin(), other.end());
    return sig;
  };
  // No samples yet: the cheap bucket waits for its first sampled window.
  EXPECT_TRUE(ctl.step(both(kIdle, kInBand), 0, -1).empty());
  EXPECT_EQ(ctl.summary().decisions[0].signal, "idle");
  const auto switched = ctl.step(both(kInBand, kInBand), 1, -1);
  ASSERT_EQ(switched.size(), 1u);
  EXPECT_EQ(switched[0].bucket_name, "tiny");
  EXPECT_EQ(switched[0].from_arm, 2);
  EXPECT_EQ(switched[0].to_arm, 0);
  EXPECT_EQ(switched[0].signal, "cheap");
  // Pinned, whatever its windows say; the other bucket follows the
  // ordinary rule.
  for (int i = 2; i < 6; ++i) ctl.step(both(kBreach, kInBand), i, -1);
  EXPECT_EQ(arm(ctl, 0), 0);
  EXPECT_EQ(arm(ctl, 1), 2);
  const auto log = ctl.summary().decisions;
  EXPECT_EQ(log[log.size() - 2].signal, "cheap:hold");
  EXPECT_EQ(log.back().signal, "in-band");
}

TEST(ControllerStep, RejectsWrongSignalSize) {
  Controller ctl(three_arms(), {"a", "b"}, {kBigNumel, kBigNumel});
  EXPECT_THROW(ctl.step(kBreach, 0, -1), std::invalid_argument);
  std::vector<float> seven(7 * 2, 1.0f);  // the old seven-float layout
  EXPECT_THROW(ctl.step(seven, 0, -1), std::invalid_argument);
  EXPECT_EQ(ctl.boundaries(), 0);
}

TEST(ControllerStep, RejectsAnEmptyArmSetOrMissingSizes) {
  EXPECT_THROW(Controller(ControlConfig{}, {"a"}, {kBigNumel}),
               std::invalid_argument);
  EXPECT_THROW(Controller(three_arms(), {"a", "b"}, {kBigNumel}),
               std::invalid_argument);
}

// --- Snapshots ------------------------------------------------------------

Controller resumed_from(const std::string& state,
                        std::vector<std::string> names = {"bucket0"},
                        ControlConfig cfg = three_arms()) {
  cfg.resume_state = state;
  const std::vector<int64_t> numels(names.size(), kBigNumel);
  return Controller(cfg, std::move(names), numels);
}

TEST(ControllerSnapshot, RejectsCorruptOrMismatchedState) {
  Controller ctl(three_arms(), {"bucket0"}, {kBigNumel});
  ctl.step(kInBand, 0, -1);
  const std::string snap = ctl.snapshot();

  EXPECT_THROW(resumed_from("garbage"), std::invalid_argument);
  // The v3 key=value grammar is not JSON, and a v3 schema fails on its
  // name.
  EXPECT_THROW(resumed_from("grace.control.v3;names_crc=0;arms_crc=0;"
                            "buckets=1;arms=3;boundaries=1;switches=0;b=2|0"),
               std::invalid_argument);
  std::string v3 = snap;
  ASSERT_EQ(v3.rfind("{\"schema\":\"grace.control.v4\",", 0), 0u) << snap;
  v3.replace(v3.find("v4"), 2, "v3");
  EXPECT_THROW(resumed_from(v3), std::invalid_argument);
  // Bucket-plan mismatch.
  EXPECT_THROW(resumed_from(snap, {"other_bucket"}), std::invalid_argument);
  // Arm-set mismatch.
  ControlConfig fewer;
  fewer.arms = {"none", "topk(0.05)"};
  EXPECT_THROW(resumed_from(snap, {"bucket0"}, fewer), std::invalid_argument);
  // Valid state restores cleanly.
  EXPECT_EQ(resumed_from(snap).boundaries(), 1);
}

// `snap` with the value of its member `key` replaced by the JSON text
// `value`. "buckets" is the last member; every other value is a number.
std::string with_member(const std::string& snap, const std::string& key,
                        const std::string& value) {
  const std::string name = "\"" + key + "\":";
  const size_t begin = snap.find(name) + name.size();
  const size_t end = key == "buckets" ? snap.size() - 1
                                      : snap.find_first_of(",}", begin);
  return snap.substr(0, begin) + value + snap.substr(end);
}

TEST(ControllerSnapshot, RejectsOutOfRangeCounts) {
  // Ten breaching boundaries over one bucket: the second and fourth step
  // 2 -> 1 -> 0, the other six grow the streak on the lightest arm. At
  // most ten switches, and no streak longer than ten.
  Controller ctl(three_arms(), {"bucket0"}, {kBigNumel});
  for (int i = 0; i < 10; ++i) ctl.step(kBreach, i, -1);
  const std::string snap = ctl.snapshot();
  ASSERT_NE(snap.find("\"switches\":2,\"buckets\":[[0,6]]}"),
            std::string::npos)
      << snap;
  auto resume = [](const std::string& state) { resumed_from(state); };
  EXPECT_NO_THROW(resume(snap));
  EXPECT_THROW(resume(with_member(snap, "boundaries", "-1")),
               std::invalid_argument);
  EXPECT_THROW(resume(with_member(snap, "boundaries", "2147483648")),
               std::invalid_argument);
  EXPECT_THROW(resume(with_member(snap, "switches", "-1")),
               std::invalid_argument);
  EXPECT_THROW(resume(with_member(snap, "switches", "11")),
               std::invalid_argument);
  EXPECT_NO_THROW(resume(with_member(snap, "switches", "10")));
  // Bucket entries are [arm, breaches], one per bucket.
  for (const char* bad :
       {"[[0,-1]]", "[[0,11]]", "[[3,0]]", "[[-1,0]]", "[[0,0,0]]", "[[0]]",
        "[[]]", "[0]", "[[0,0.5]]", "[[0,1e0]]", "[[\"0\",0]]", "[[0,null]]",
        "[]", "[[0,0],[0,0]]", "{}"}) {
    EXPECT_THROW(resume(with_member(snap, "buckets", bad)),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_NO_THROW(resume(with_member(snap, "buckets", "[[2,10]]")));
  // Another arm count, a fractional count, a negative CRC and a missing
  // member fail too.
  EXPECT_THROW(resume(with_member(snap, "arms", "2")), std::invalid_argument);
  EXPECT_THROW(resume(with_member(snap, "boundaries", "10.0")),
               std::invalid_argument);
  EXPECT_THROW(resume(with_member(snap, "names_crc", "-1")),
               std::invalid_argument);
  std::string no_switches = snap;
  no_switches.replace(no_switches.find("\"switches\""), 10, "\"switched\"");
  EXPECT_THROW(resume(no_switches), std::invalid_argument);
}

TEST(ControllerSnapshot, RestoresAPendingStreak) {
  // Cut after the first of two breaching windows: the restored controller
  // carries the streak and switches on the next breach, exactly as the
  // uninterrupted one does.
  Controller full(three_arms(), {"bucket0"}, {kBigNumel});
  EXPECT_TRUE(full.step(kBreach, 0, -1).empty());
  ASSERT_NE(full.snapshot().find("\"buckets\":[[2,1]]"), std::string::npos);
  Controller resumed = resumed_from(full.snapshot());
  const auto a = full.step(kBreach, 1, -1);
  const auto b = resumed.step(kBreach, 1, -1);
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
  return cfg;
}

TEST(TrainerControl, SameSeedYieldsByteIdenticalDecisionLogs) {
  sim::Benchmark b = tiny_cnn();
  sim::TrainConfig cfg = controller_config(b, 2);
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
  // Force switches with a heaviest arm so lossy that every bucket's window
  // cosine breaches the floor, with error feedback on, so a residual is
  // pending when the arm changes: the next arm's compensation absorbs it,
  // identically on every run.
  sim::Benchmark b = tiny_cnn();
  sim::TrainConfig cfg = controller_config(b, 2);
  cfg.grace.error_feedback = true;
  cfg.grace.compressor_spec = "randomk(0.01)";
  cfg.grace.control.arms = {"none", "randomk(0.01)"};
  sim::RunResult r1 = train(b.factory, cfg);
  sim::RunResult r2 = train(b.factory, cfg);
  // Every bucket leaves the heaviest arm, cheap ones at the first boundary
  // and the rest on their second breach.
  ASSERT_EQ(r1.control.switches,
            static_cast<int>(r1.control.final_arms.size()));
  for (const ControlDecision& d : r1.control.decisions) {
    if (d.to_arm != d.from_arm) {
      EXPECT_LE(d.boundary, 1) << d.bucket_name << " " << d.signal;
    }
  }
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
  sim::RunResult full = train(b.factory, cfg);

  sim::TrainConfig stage_cfg = cfg;
  stage_cfg.epochs = 2;
  sim::RunResult stage = train(b.factory, stage_cfg);
  // The hand-off carries arms that differ from the start's.
  ASSERT_GT(stage.control.switches, 0);

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
