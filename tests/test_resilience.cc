// Trainer-level resilience tests (docs/RESILIENCE.md): training under
// deterministic fault plans — stragglers charge exactly the injected
// delay, drops and corruption never change what gets aggregated, skipped
// rounds ride the error-feedback residual, and a mid-epoch crash hands off
// to the survivors so exactly that a fresh (n-1)-rank run resumed from the
// survivors' weights reproduces the tail of the crashed run bit-for-bit.
#include <gtest/gtest.h>
#include <cstdint>

#include <algorithm>
#include <vector>

#include "sim/tasks.h"

namespace grace::sim {
namespace {

Benchmark tiny_cnn() { return make_cnn_classification(0.1); }

// SGD is stateless and CnnSmall ignores the batch rng, which is what makes
// the exact-equivalence assertions below possible (a momentum buffer would
// differ between a resumed run and the original).
TrainConfig tiny_config(const Benchmark& b, int n_workers) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = n_workers;
  cfg.net.n_workers = n_workers;
  cfg.batch_per_worker = 4;
  cfg.epochs = 2;
  cfg.optimizer.type = optim::OptimizerType::Sgd;
  cfg.optimizer.lr = 0.02;
  cfg.grace.compressor_spec = "none";
  return cfg;
}

// ---------------------------------------------------------------------------
// No-op plans and healthy-path equivalence

TEST(Resilience, AllZeroPlanMatchesNoPlanExactly) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 2);

  RunResult clean = train(b.factory, cfg);

  faults::FaultPlan plan{faults::FaultSpec{}};  // all probabilities zero
  cfg.faults = &plan;
  RunResult planned = train(b.factory, cfg);

  EXPECT_EQ(planned.final_parameters, clean.final_parameters);
  EXPECT_EQ(planned.parameters_crc32, clean.parameters_crc32);
  ASSERT_EQ(planned.epochs.size(), clean.epochs.size());
  for (size_t e = 0; e < clean.epochs.size(); ++e) {
    EXPECT_EQ(planned.epochs[e].train_loss, clean.epochs[e].train_loss);
    EXPECT_EQ(planned.epochs[e].quality, clean.epochs[e].quality);
  }
  EXPECT_EQ(planned.faults.attempts_staged, 0u);
  EXPECT_EQ(planned.faults.retries, 0u);
  EXPECT_DOUBLE_EQ(planned.phases.stall_s, 0.0);
}

// ---------------------------------------------------------------------------
// Stragglers

TEST(Resilience, StragglerChargesExactlyTheInjectedDelay) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 2);

  faults::FaultSpec spec;
  spec.straggler_prob = 1.0;  // every iteration...
  spec.straggler_rank = 1;    // ...rank 1 stalls...
  spec.straggler_delay_s = 5e-3;  // ...for exactly 5 ms of simulated time
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;

  RunResult run = train(b.factory, cfg);
  // The stall phase is pure bookkeeping of the injected delay: the slowest
  // rank stalls 5 ms every iteration, so the per-iteration mean is exact.
  EXPECT_DOUBLE_EQ(run.phases.stall_s, 5e-3);

  const int64_t global_batch =
      static_cast<int64_t>(cfg.n_workers) * cfg.batch_per_worker;
  const int64_t iters =
      std::max<int64_t>(1, run.samples_per_epoch / global_batch) *
      static_cast<int64_t>(run.epochs.size());
  EXPECT_EQ(run.faults.straggler_events, static_cast<uint64_t>(iters));
  EXPECT_DOUBLE_EQ(run.faults.straggler_stall_s,
                   static_cast<double>(iters) * 5e-3);

  // Simulated time only — the training outcome is untouched.
  RunResult clean = train(b.factory, [&] {
    TrainConfig c = cfg;
    c.faults = nullptr;
    return c;
  }());
  EXPECT_EQ(run.final_parameters, clean.final_parameters);
}

// ---------------------------------------------------------------------------
// Drops and corruption

TEST(Resilience, DropsCostTimeButNeverChangeTraining) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 2);
  RunResult clean = train(b.factory, cfg);

  faults::FaultSpec spec;
  spec.seed = 17;
  spec.drop_prob = 0.2;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;
  RunResult dropped = train(b.factory, cfg);

  // Every drop was detected, retried, and charged simulated time...
  EXPECT_GT(dropped.faults.drops_detected, 0u);
  EXPECT_EQ(dropped.faults.retries, dropped.faults.drops_detected);
  EXPECT_GT(dropped.faults.retry_stall_s, 0.0);
  EXPECT_GT(dropped.phases.stall_s, 0.0);
  // ...and the delivered payloads were always the clean copies.
  EXPECT_EQ(dropped.final_parameters, clean.final_parameters);
  ASSERT_EQ(dropped.epochs.size(), clean.epochs.size());
  for (size_t e = 0; e < clean.epochs.size(); ++e) {
    EXPECT_EQ(dropped.epochs[e].train_loss, clean.epochs[e].train_loss);
  }

  // Bit-for-bit replay: the same plan gives the same run.
  RunResult again = train(b.factory, cfg);
  EXPECT_EQ(again.final_parameters, dropped.final_parameters);
  EXPECT_EQ(again.faults.drops_detected, dropped.faults.drops_detected);
  EXPECT_EQ(again.faults.retransmitted_bytes, dropped.faults.retransmitted_bytes);
  EXPECT_DOUBLE_EQ(again.faults.retry_stall_s, dropped.faults.retry_stall_s);
}

TEST(Resilience, CorruptionIsDetectedNeverAggregated) {
  // topk serializes to CRC-framed blobs for the allgather, so corruption
  // is injectable — and must always be caught by the frame check, never
  // folded into the aggregate.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 2);
  cfg.grace.compressor_spec = "topk(0.05)";
  RunResult clean = train(b.factory, cfg);

  faults::FaultSpec spec;
  spec.seed = 23;
  spec.corrupt_prob = 0.3;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;
  RunResult corrupted = train(b.factory, cfg);

  EXPECT_GT(corrupted.faults.corruptions_detected, 0u);
  EXPECT_TRUE(corrupted.replicas_in_sync);
  EXPECT_EQ(corrupted.final_parameters, clean.final_parameters);
  EXPECT_EQ(corrupted.parameters_crc32, clean.parameters_crc32);
}

// ---------------------------------------------------------------------------
// Skipped rounds

TEST(Resilience, SkippingEveryRoundFreezesTheModel) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 2);
  cfg.grace.compressor_spec = "topk(0.1)";  // EF compressor: residual absorbs
  cfg.epochs = 1;

  faults::FaultSpec spec;
  spec.skip_round_prob = 1.0;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;
  RunResult run = train(b.factory, cfg);

  // No exchange ever completed, so no optimizer step ran: the final
  // parameters are exactly the init.
  auto probe = b.factory(cfg.seed);
  std::vector<float> init;
  for (auto& p : probe->module().parameters()) {
    auto v = p.value->data.f32();
    init.insert(init.end(), v.begin(), v.end());
  }
  EXPECT_EQ(run.final_parameters, init);

  const int64_t global_batch =
      static_cast<int64_t>(cfg.n_workers) * cfg.batch_per_worker;
  const int64_t iters =
      std::max<int64_t>(1, run.samples_per_epoch / global_batch);
  EXPECT_EQ(run.faults.rounds_skipped, static_cast<uint64_t>(iters));
}

TEST(Resilience, PartialSkipsKeepReplicasInSyncDeterministically) {
  Benchmark b = tiny_cnn();
  for (const bool fused : {false, true}) {
    TrainConfig cfg = tiny_config(b, 2);
    cfg.grace.compressor_spec = "topk(0.1)";
    cfg.fusion_bytes = fused ? SIZE_MAX : 0;

    faults::FaultSpec spec;
    spec.seed = 31;
    spec.skip_round_prob = 0.5;
    faults::FaultPlan plan(spec);
    cfg.faults = &plan;

    RunResult a = train(b.factory, cfg);
    RunResult c = train(b.factory, cfg);
    EXPECT_TRUE(a.replicas_in_sync) << "fused=" << fused;
    EXPECT_GT(a.faults.rounds_skipped, 0u);
    EXPECT_EQ(a.final_parameters, c.final_parameters) << "fused=" << fused;
    EXPECT_EQ(a.faults.rounds_skipped, c.faults.rounds_skipped);
  }
}

// ---------------------------------------------------------------------------
// Crash: the survivors continue

TEST(Resilience, CrashContinueHandsOffToSurvivorsExactly) {
  // The satellite acceptance test: rank 2 of a 4-rank run dies mid-epoch;
  // the survivors finish the crash epoch on the frozen schedule, then
  // re-partition. A fresh 3-rank run started from the survivors' weights
  // at the next epoch boundary (start_epoch) must reproduce the crashed
  // run's tail exactly — same loss trajectory, same final weights.
  Benchmark b = tiny_cnn();

  faults::FaultSpec spec;
  spec.crash_rank = 2;
  spec.crash_epoch = 1;
  spec.crash_iter = 2;  // mid-epoch
  faults::FaultPlan plan(spec);

  // Full crashed run over epochs 0..2.
  TrainConfig cfg4 = tiny_config(b, 4);
  cfg4.epochs = 3;
  cfg4.faults = &plan;
  RunResult full = train(b.factory, cfg4);
  EXPECT_EQ(full.faults.crashed_ranks, 1u);
  EXPECT_GT(full.faults.degraded_iters, 0u);
  EXPECT_TRUE(full.replicas_in_sync);

  // The same run stopped at the end of the crash epoch: its final weights
  // are the survivors' hand-off state.
  TrainConfig stage_cfg = cfg4;
  stage_cfg.epochs = 2;
  RunResult stage = train(b.factory, stage_cfg);

  // Fresh 3-rank run resumed from those weights at epoch 2.
  std::vector<float> saved = stage.final_parameters;
  ReplicaFactory resumed = [&b, saved](uint64_t seed) {
    auto model = b.factory(seed);
    size_t at = 0;
    for (auto& p : model->module().parameters()) {
      auto v = p.value->data.f32();
      std::copy_n(saved.begin() + static_cast<int64_t>(at), v.size(), v.begin());
      at += v.size();
    }
    return model;
  };
  TrainConfig cfg3 = tiny_config(b, 3);
  cfg3.epochs = 1;
  cfg3.start_epoch = 2;
  RunResult cont = train(resumed, cfg3);

  ASSERT_EQ(full.epochs.size(), 3u);
  ASSERT_EQ(cont.epochs.size(), 1u);
  EXPECT_EQ(cont.epochs[0].train_loss, full.epochs[2].train_loss);
  EXPECT_EQ(cont.epochs[0].quality, full.epochs[2].quality);
  EXPECT_EQ(cont.final_parameters, full.final_parameters);
  EXPECT_EQ(cont.parameters_crc32, full.parameters_crc32);
}

TEST(Resilience, CrashResumesUnderTheSamePlanInTheSurvivorView) {
  // The crash sits at absolute (epoch, iteration) coordinates, like churn:
  // the crashed 4-rank run of the hand-off test above, staged at the end of
  // the crash epoch and resumed at start_epoch 2 on 4 physical ranks under
  // the SAME plan, starts in the survivor view (rank 2 parked) and must
  // reproduce the uninterrupted run's last epoch exactly.
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.crash_rank = 2;
  spec.crash_epoch = 1;
  spec.crash_iter = 2;
  faults::FaultPlan plan(spec);

  TrainConfig cfg = tiny_config(b, 4);
  cfg.epochs = 3;
  cfg.faults = &plan;
  RunResult full = train(b.factory, cfg);

  TrainConfig stage_cfg = cfg;
  stage_cfg.epochs = 2;
  RunResult stage = train(b.factory, stage_cfg);

  std::vector<float> saved = stage.final_parameters;
  ReplicaFactory resumed = [&b, saved](uint64_t seed) {
    auto model = b.factory(seed);
    size_t at = 0;
    for (auto& p : model->module().parameters()) {
      auto v = p.value->data.f32();
      std::copy_n(saved.begin() + static_cast<int64_t>(at), v.size(), v.begin());
      at += v.size();
    }
    return model;
  };
  TrainConfig cont_cfg = cfg;
  cont_cfg.epochs = 1;
  cont_cfg.start_epoch = 2;
  RunResult cont = train(resumed, cont_cfg);

  ASSERT_EQ(full.epochs.size(), 3u);
  ASSERT_EQ(cont.epochs.size(), 1u);
  EXPECT_EQ(cont.epochs[0].train_loss, full.epochs[2].train_loss);
  EXPECT_EQ(cont.final_parameters, full.final_parameters);
  EXPECT_EQ(cont.parameters_crc32, full.parameters_crc32);
  EXPECT_TRUE(cont.replicas_in_sync);
  // The crash happened before the resumed run: it is not counted again.
  EXPECT_EQ(full.faults.crashed_ranks, 1u);
  EXPECT_EQ(cont.faults.crashed_ranks, 0u);
  EXPECT_EQ(full.faults.leaves, 0u);
}

TEST(Resilience, SurvivorsArePricedOnTheirOwnLinks) {
  // Rank 2 is the only throttled link and crashes at the start of epoch 1.
  // From then on the bottleneck is over the survivors, so the fully
  // post-crash epoch must cost exactly what it costs on a uniform fleet
  // (codec clock zeroed: every simulated second is then deterministic).
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.crash_rank = 2;
  spec.crash_epoch = 1;
  spec.crash_iter = 0;
  faults::FaultPlan plan(spec);

  TrainConfig cfg = tiny_config(b, 4);
  cfg.epochs = 2;
  cfg.faults = &plan;
  cfg.time.compression_time_scale = 0.0;
  RunResult uniform = train(b.factory, cfg);

  std::vector<comm::LinkProfile> lp(4);
  lp[2].bandwidth_scale = 0.1;
  cfg.fleet = comm::FleetProfile(std::move(lp), "one-slow-link");
  RunResult throttled = train(b.factory, cfg);

  ASSERT_EQ(uniform.epochs.size(), 2u);
  ASSERT_EQ(throttled.epochs.size(), 2u);
  // The slow link prices the pre-crash epoch...
  EXPECT_GT(throttled.epochs[0].epoch_sim_seconds,
            uniform.epochs[0].epoch_sim_seconds);
  // ...and stops mattering once its rank is gone.
  EXPECT_EQ(throttled.epochs[1].epoch_sim_seconds,
            uniform.epochs[1].epoch_sim_seconds);
  EXPECT_EQ(throttled.parameters_crc32, uniform.parameters_crc32);
}

TEST(Resilience, ThroughputCountsOnlyTheRanksThatRan) {
  // Rank 2 crashes at (0, 1): iteration 0 runs on all 4 ranks, the rest of
  // the run on the 3 survivors. The run fits the 100-iteration throughput
  // window, so throughput times the run's simulated seconds is the number
  // of samples the alive ranks processed.
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.crash_rank = 2;
  spec.crash_epoch = 0;
  spec.crash_iter = 1;
  const faults::FaultPlan plan(spec);
  TrainConfig cfg = tiny_config(b, 4);
  cfg.faults = &plan;
  const RunResult run = train(b.factory, cfg);

  const int64_t train_n = b.factory(cfg.seed)->train_size();
  const int64_t batch = cfg.batch_per_worker;
  // Epoch 0 keeps the 4-rank partition; epoch 1 re-partitions over 3.
  const int64_t epoch0 = train_n / (4 * batch);
  const int64_t epoch1 = train_n / (3 * batch);
  ASSERT_LT(epoch0 + epoch1, 100);
  const auto samples = static_cast<double>(
      4 * batch + (epoch0 - 1 + epoch1) * 3 * batch);
  EXPECT_NEAR(run.throughput * run.total_sim_seconds, samples,
              samples * 1e-9);
  EXPECT_EQ(run.samples_per_epoch, epoch0 * 4 * batch);
}

TEST(Resilience, CrashedRunsReplayBitForBit) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 4);
  cfg.epochs = 2;

  faults::FaultSpec spec;
  spec.seed = 41;
  spec.crash_rank = 3;
  spec.crash_epoch = 0;
  spec.crash_iter = 1;
  spec.drop_prob = 0.1;  // drops on top of the crash
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;

  RunResult a = train(b.factory, cfg);
  RunResult c = train(b.factory, cfg);
  EXPECT_EQ(a.final_parameters, c.final_parameters);
  EXPECT_EQ(a.faults.drops_detected, c.faults.drops_detected);
  EXPECT_EQ(a.faults.degraded_iters, c.faults.degraded_iters);
  ASSERT_EQ(a.epochs.size(), c.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].train_loss, c.epochs[e].train_loss);
  }
}

}  // namespace
}  // namespace grace::sim
