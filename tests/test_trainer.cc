// Distributed trainer integration: replica consistency, equivalence of
// n-worker baseline training with single-worker large-batch training,
// metrics bookkeeping, and end-to-end learning under compression.
#include <gtest/gtest.h>

#include <stdexcept>

#include "data/synthetic_images.h"
#include "models/cnn_small.h"
#include "sim/tasks.h"

namespace grace::sim {
namespace {

Benchmark tiny_cnn() { return make_cnn_classification(0.1); }

TrainConfig tiny_config(const Benchmark& b, int workers = 2) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = workers;
  cfg.net.n_workers = workers;
  cfg.epochs = 2;
  return cfg;
}

TEST(Trainer, ReplicasStayInSync) {
  Benchmark b = tiny_cnn();
  for (const char* spec : {"none", "topk(0.1)", "qsgd(8)", "powersgd(2)"}) {
    TrainConfig cfg = tiny_config(b, 4);
    cfg.grace.compressor_spec = spec;
    RunResult run = train(b.factory, cfg);
    EXPECT_TRUE(run.replicas_in_sync) << spec;
  }
}

TEST(Trainer, BaselineMatchesSingleWorkerBigBatch) {
  // n workers x batch b with Allreduce-mean must equal 1 worker x batch n*b:
  // the same global mini-batch in the same order, the same mean gradient.
  Benchmark b = tiny_cnn();
  TrainConfig multi = tiny_config(b, 4);
  multi.batch_per_worker = 4;
  multi.epochs = 1;
  multi.grace.compressor_spec = "none";
  RunResult rm = train(b.factory, multi);

  TrainConfig single = tiny_config(b, 1);
  single.batch_per_worker = 16;
  single.epochs = 1;
  single.grace.compressor_spec = "none";
  RunResult rs = train(b.factory, single);

  ASSERT_FALSE(rm.epochs.empty());
  ASSERT_FALSE(rs.epochs.empty());
  // Final quality must agree to float tolerance (identical update sequence
  // up to summation order inside the gradient mean).
  EXPECT_NEAR(rm.final_quality, rs.final_quality, 1e-6);
}

TEST(Trainer, DeterministicAcrossRuns) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "randomk(0.2)";
  RunResult r1 = train(b.factory, cfg);
  RunResult r2 = train(b.factory, cfg);
  ASSERT_EQ(r1.epochs.size(), r2.epochs.size());
  for (size_t e = 0; e < r1.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(r1.epochs[e].train_loss, r2.epochs[e].train_loss);
    EXPECT_DOUBLE_EQ(r1.epochs[e].quality, r2.epochs[e].quality);
  }
  EXPECT_DOUBLE_EQ(r1.wire_bytes_per_iter, r2.wire_bytes_per_iter);
}

TEST(Trainer, SeedChangesTrajectory) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  RunResult r1 = train(b.factory, cfg);
  cfg.seed = 777;
  RunResult r2 = train(b.factory, cfg);
  EXPECT_NE(r1.epochs[0].train_loss, r2.epochs[0].train_loss);
}

TEST(Trainer, MetricsBookkeeping) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.1)";
  RunResult run = train(b.factory, cfg);
  EXPECT_EQ(run.model, "cnn-small");
  EXPECT_EQ(run.compressor, "topk(0.1)");
  EXPECT_TRUE(run.error_feedback);
  EXPECT_GT(run.model_parameters, 0);
  EXPECT_EQ(static_cast<int>(run.epochs.size()), cfg.epochs);
  EXPECT_GT(run.throughput, 0.0);
  EXPECT_GT(run.wire_bytes_per_iter, 0.0);
  EXPECT_GT(run.compute_s, 0.0);
  EXPECT_GT(run.phases.comm_s, 0.0);
  EXPECT_GT(run.total_sim_seconds, 0.0);
  // Cumulative time is monotone and ends at the total.
  double prev = 0.0;
  for (const auto& e : run.epochs) {
    EXPECT_GT(e.cum_sim_seconds, prev);
    prev = e.cum_sim_seconds;
  }
  EXPECT_DOUBLE_EQ(prev, run.total_sim_seconds);
}

TEST(Trainer, CompressionReducesWireBytes) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "none";
  const double base = train(b.factory, cfg).wire_bytes_per_iter;
  cfg.grace.compressor_spec = "topk(0.01)";
  const double topk = train(b.factory, cfg).wire_bytes_per_iter;
  cfg.grace.compressor_spec = "signsgd";
  const double sign = train(b.factory, cfg).wire_bytes_per_iter;
  EXPECT_LT(topk, base * 0.05);
  EXPECT_LT(sign, base * 0.05);
}

TEST(Trainer, BaselineUsesLessCommTimeOnFasterNetwork) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.net.bandwidth_gbps = 1.0;
  const double slow = train(b.factory, cfg).phases.comm_s;
  cfg.net.bandwidth_gbps = 25.0;
  const double fast = train(b.factory, cfg).phases.comm_s;
  EXPECT_GT(slow, fast);
}

TEST(Trainer, EndToEndLearningUnderCompression) {
  // Every compressor family must reach clearly-above-chance accuracy on an
  // easy task (10 classes => chance = 0.1).
  data::ImageConfig dc;
  dc.n_train = 200;
  dc.n_test = 100;
  dc.noise = 0.4f;
  auto data = std::make_shared<const data::ImageDataset>(data::make_images(dc));
  ReplicaFactory factory = [data](uint64_t seed) {
    return std::make_unique<models::CnnSmall>(data, seed);
  };
  for (const char* spec :
       {"none", "topk(0.05)", "qsgd(64)", "efsignsgd", "powersgd(4)",
        "dgc(0.05)", "terngrad", "sketchml(64)"}) {
    TrainConfig cfg;
    cfg.n_workers = 2;
    cfg.net.n_workers = 2;
    cfg.batch_per_worker = 8;
    cfg.epochs = 4;
    cfg.optimizer = {.type = optim::OptimizerType::Momentum, .lr = 0.05};
    // DGC's built-in momentum correction composes badly with a momentum
    // optimizer; the paper runs it with vanilla SGD (§V-A).
    if (std::string(spec).starts_with("dgc")) {
      cfg.optimizer.type = optim::OptimizerType::Sgd;
    }
    cfg.grace.compressor_spec = spec;
    RunResult run = train(factory, cfg);
    EXPECT_GT(run.best_quality, 0.35) << spec;
    EXPECT_TRUE(run.replicas_in_sync) << spec;
  }
}

TEST(Trainer, EpochTailAccountedWhenDatasetDoesNotDivide) {
  // Regression: iterations only cover whole global batches, so with
  // n_train=200 and a global batch of 16 each epoch runs 12 iterations
  // (192 samples) and silently skips 8. The trainer must now surface that
  // in the result instead of dropping the tail without a trace.
  data::ImageConfig dc;
  dc.n_train = 200;
  dc.n_test = 20;
  auto data = std::make_shared<const data::ImageDataset>(data::make_images(dc));
  ReplicaFactory factory = [data](uint64_t seed) {
    return std::make_unique<models::CnnSmall>(data, seed);
  };
  TrainConfig cfg;
  cfg.n_workers = 2;
  cfg.net.n_workers = 2;
  cfg.batch_per_worker = 8;
  cfg.epochs = 1;
  RunResult run = train(factory, cfg);
  EXPECT_EQ(run.samples_per_epoch, 192);
  EXPECT_EQ(run.samples_dropped_per_epoch, 8);

  // An evenly dividing dataset drops nothing.
  cfg.batch_per_worker = 10;  // global batch 20 divides 200
  RunResult even = train(factory, cfg);
  EXPECT_EQ(even.samples_per_epoch, 200);
  EXPECT_EQ(even.samples_dropped_per_epoch, 0);
}

TEST(Trainer, DatasetSmallerThanGlobalBatchWrapsAround) {
  // Regression: with n_train < global batch the batch slice used to read
  // past the epoch order. The trainer must wrap instead, still running one
  // full-iteration epoch with every replica in sync.
  data::ImageConfig dc;
  dc.n_train = 10;  // < 2 workers x batch 8 = 16
  dc.n_test = 20;
  auto data = std::make_shared<const data::ImageDataset>(data::make_images(dc));
  ReplicaFactory factory = [data](uint64_t seed) {
    return std::make_unique<models::CnnSmall>(data, seed);
  };
  TrainConfig cfg;
  cfg.n_workers = 2;
  cfg.net.n_workers = 2;
  cfg.batch_per_worker = 8;
  cfg.epochs = 2;
  RunResult run = train(factory, cfg);
  ASSERT_EQ(run.epochs.size(), 2u);
  EXPECT_TRUE(run.replicas_in_sync);
  EXPECT_EQ(run.samples_per_epoch, 16);  // one wrapped global batch
  EXPECT_EQ(run.samples_dropped_per_epoch, 0);
}

TEST(Trainer, PricesTheWorkersItRuns) {
  // train() prices the n_workers ranks it runs, as simulate_scale does: a
  // stale net.n_workers changes no number. The codec clock is zeroed so
  // the simulated seconds are deterministic.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 4);
  cfg.time.compression_time_scale = 0.0;
  const RunResult same = train(b.factory, cfg);
  cfg.net.n_workers = 8;
  const RunResult stale = train(b.factory, cfg);
  EXPECT_EQ(stale.parameters_crc32, same.parameters_crc32);
  EXPECT_EQ(stale.iteration_s, same.iteration_s);
  EXPECT_EQ(stale.throughput, same.throughput);
}

TEST(Trainer, InvalidCompressorSpecThrowsOnTheCallersThread) {
  // A spec that parses but cannot be instantiated must throw from train()
  // before any worker starts; thrown inside a worker it would terminate
  // the process.
  Benchmark b = tiny_cnn();
  for (const char* spec : {"bogus", "sketchml(0)"}) {
    TrainConfig cfg = tiny_config(b);
    cfg.grace.compressor_spec = spec;
    EXPECT_THROW(train(b.factory, cfg), std::invalid_argument) << spec;
  }
}

TEST(Tasks, StandardSuiteShape) {
  auto suite = standard_suite(0.1);
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].model, "cnn-small");
  EXPECT_EQ(suite[1].model, "mlp-wide");
  EXPECT_EQ(suite[2].model, "lstm-lm");
  EXPECT_EQ(suite[3].model, "ncf");
  EXPECT_EQ(suite[4].model, "unet-mini");
  for (const auto& b : suite) {
    EXPECT_TRUE(b.factory);
    EXPECT_GT(b.epochs, 0);
    EXPECT_FALSE(b.quality_metric.empty());
  }
}

TEST(Tasks, DefaultConfigMirrorsPaperSetup) {
  auto b = make_cnn_classification(0.1);
  TrainConfig cfg = default_config(b);
  EXPECT_EQ(cfg.n_workers, 8);
  EXPECT_EQ(cfg.net.n_workers, 8);
  EXPECT_DOUBLE_EQ(cfg.net.bandwidth_gbps, 10.0);
  EXPECT_EQ(cfg.net.transport, comm::Transport::Tcp);
}

}  // namespace
}  // namespace grace::sim
