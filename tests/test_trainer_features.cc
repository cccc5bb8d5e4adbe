// Trainer features beyond the core loop: tensor fusion, learning-rate
// schedules, and the fixed per-tensor compression overhead accounting.
#include <gtest/gtest.h>
#include <cstdint>

#include "sim/tasks.h"

namespace grace::sim {
namespace {

Benchmark tiny_cnn() { return make_cnn_classification(0.1); }

TrainConfig tiny_config(const Benchmark& b) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = 2;
  cfg.net.n_workers = 2;
  cfg.epochs = 2;
  return cfg;
}

TEST(Fusion, ReplicasStaySynced) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.fusion_bytes = SIZE_MAX;
  for (const char* spec : {"none", "topk(0.1)", "qsgd(16)"}) {
    cfg.grace.compressor_spec = spec;
    RunResult run = train(b.factory, cfg);
    EXPECT_TRUE(run.replicas_in_sync) << spec;
    EXPECT_GT(run.best_quality, 0.0) << spec;
  }
}

TEST(Fusion, BaselineFusedEqualsUnfused) {
  // With the identity compressor, fusing changes only the communication
  // granularity; the aggregated gradients (hence training) are identical
  // up to allreduce chunk-order rounding.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "none";
  RunResult unfused = train(b.factory, cfg);
  cfg.fusion_bytes = SIZE_MAX;
  RunResult fused = train(b.factory, cfg);
  EXPECT_NEAR(unfused.final_quality, fused.final_quality, 1e-6);
}

TEST(Fusion, OneExchangePerIteration) {
  // Fused baseline ships the same bytes; fused sparsifier selects top-k
  // globally. Either way wire accounting must match a single payload.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.1)";
  RunResult unfused = train(b.factory, cfg);
  cfg.fusion_bytes = SIZE_MAX;
  RunResult fused = train(b.factory, cfg);
  // Global top-k over d ~= sum of per-tensor top-k counts (rounding of
  // max(1, 0.1*n) differs for small tensors).
  EXPECT_NEAR(fused.wire_bytes_per_iter, unfused.wire_bytes_per_iter,
              0.35 * unfused.wire_bytes_per_iter);
  // One collective instead of one per tensor: simulated comm time drops.
  EXPECT_LT(fused.phases.comm_s, unfused.phases.comm_s);
}

TEST(Fusion, GlobalTopkPrioritizesAcrossLayers) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.05)";
  cfg.fusion_bytes = SIZE_MAX;
  RunResult run = train(b.factory, cfg);
  EXPECT_TRUE(run.replicas_in_sync);
}

TEST(LrDecay, ReducesStepSizeOverTime) {
  // Aggressive decay freezes training: quality trajectory flattens after
  // the decay epoch compared to constant lr.
  Benchmark b = make_cnn_classification(0.2);
  TrainConfig cfg = default_config(b);
  cfg.n_workers = 2;
  cfg.net.n_workers = 2;
  cfg.epochs = 4;
  cfg.grace.compressor_spec = "none";
  RunResult constant = train(b.factory, cfg);
  cfg.lr_decay_every = 1;
  cfg.lr_decay_factor = 1e-6;  // effectively freeze after epoch 1
  RunResult frozen = train(b.factory, cfg);
  ASSERT_EQ(constant.epochs.size(), frozen.epochs.size());
  // Same first epoch (decay applies from epoch 1 on)...
  EXPECT_NEAR(constant.epochs[0].train_loss, frozen.epochs[0].train_loss, 1e-6);
  // ...then frozen training stops improving its loss while constant does.
  EXPECT_LT(constant.epochs.back().train_loss,
            frozen.epochs.back().train_loss - 1e-3);
  EXPECT_TRUE(frozen.replicas_in_sync);
}

TEST(FixedOverhead, ChargedOnlyWhenCompressing) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.time.compression_time_scale = 0.0;  // leave only the fixed charge
  cfg.grace.compressor_spec = "none";
  const double base = train(b.factory, cfg).compress_s;
  cfg.grace.compressor_spec = "signsgd";
  const double compressed = train(b.factory, cfg).compress_s;
  EXPECT_EQ(base, 0.0);  // baseline pays nothing
  // At least 5 tensors, each charged the fixed cost.
  EXPECT_GE(compressed, 5 * TimeModel::kCompressionFixedPerTensor);
}

TEST(FixedOverhead, FusionAmortizesIt) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.time.compression_time_scale = 0.0;  // leave only the fixed charge
  cfg.grace.compressor_spec = "signsgd";
  const double per_tensor = train(b.factory, cfg).compress_s;
  cfg.fusion_bytes = SIZE_MAX;
  const double fused = train(b.factory, cfg).compress_s;
  EXPECT_LT(fused, per_tensor);
}

}  // namespace
}  // namespace grace::sim
