// The compression-fidelity observability layer: GraceWorker's probe hook
// (per-tensor ratio / reconstruction-error / cosine / sign-agreement /
// EF-residual measurements), the MetricRegistry (log2 histograms with a
// deterministic cross-rank merge), the Chrome-trace
// exporter, and the JSON surfaces of all three (validated with the strict
// shared checker, standing in for bench_fidelity's output).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/grace_world.h"
#include "data/synthetic_images.h"
#include "models/cnn_small.h"
#include "sim/critical_path.h"
#include "sim/fidelity.h"
#include "sim/metric_registry.h"
#include "sim/tasks.h"
#include "sim/trace.h"
#include "sim/trace_chrome.h"
#include "util/json.h"

namespace grace::sim {
namespace {


// Total probed exchanges across all ranks and tensors.
int64_t total_samples(const CompressionFidelityProbe& probe) {
  int64_t total = 0;
  for (const TensorFidelitySummary& t : probe.summaries()) total += t.samples;
  return total;
}

// One probed single-rank exchange: every fidelity quantity is then exactly
// computable from the gradient and the compressor's reconstruction.
core::FidelitySample probe_one(const core::GraceConfig& cfg,
                               const Tensor& grad) {
  struct Capture final : core::ExchangeProbe {
    std::vector<core::FidelitySample> samples;
    void on_sample(const core::FidelitySample& s) override {
      samples.push_back(s);
    }
  } capture;
  comm::World world(1);
  comm::NetworkModel net;
  net.n_workers = 1;
  core::GraceWorker worker(cfg, world.comm(0), net, /*rng_seed=*/7);
  worker.set_probe(&capture);
  worker.wait(worker.submit(Tensor(grad), "g"));
  EXPECT_EQ(capture.samples.size(), 1u);
  return capture.samples.empty() ? core::FidelitySample{} : capture.samples[0];
}

TEST(FidelityProbe, IdentityCompressionIsLossless) {
  core::GraceConfig cfg;
  cfg.compressor_spec = "none";
  Tensor g = Tensor::from(std::vector<float>{1.0f, -2.0f, 0.5f, 3.0f});
  const core::FidelitySample s = probe_one(cfg, g);
  EXPECT_EQ(s.numel, 4);
  EXPECT_EQ(s.dense_bits, 128u);
  EXPECT_EQ(s.wire_bits, 128u);
  EXPECT_DOUBLE_EQ(s.compression_ratio, 1.0);
  EXPECT_DOUBLE_EQ(s.l2_rel_error, 0.0);
  EXPECT_DOUBLE_EQ(s.cosine_similarity, 1.0);
  EXPECT_DOUBLE_EQ(s.sign_agreement, 1.0);
  EXPECT_DOUBLE_EQ(s.residual_l2, 0.0);  // EF off for "none"
  EXPECT_NEAR(s.grad_l2, std::sqrt(1.0 + 4.0 + 0.25 + 9.0), 1e-6);
}

TEST(FidelityProbe, TopkMeasuresDroppedMassExactly) {
  core::GraceConfig cfg;
  cfg.compressor_spec = "topk(0.25)";
  cfg.error_feedback = false;
  // Top-1 of 4 keeps the 8.0; the rest is reconstruction error.
  Tensor g = Tensor::from(std::vector<float>{8.0f, 0.1f, -0.2f, 0.05f});
  const core::FidelitySample s = probe_one(cfg, g);
  // topk stores (index, value) pairs at 64 bits each: 128 dense / 64 wire.
  EXPECT_DOUBLE_EQ(s.compression_ratio, 2.0);
  const double xx = 64.0 + 0.01 + 0.04 + 0.0025;
  const double d2 = 0.01 + 0.04 + 0.0025;
  EXPECT_NEAR(s.l2_rel_error, std::sqrt(d2 / xx), 1e-9);
  EXPECT_NEAR(s.cosine_similarity, 64.0 / (std::sqrt(xx) * 8.0), 1e-9);
  // Only the kept coordinate agrees in sign (zeros disagree with nonzeros).
  EXPECT_DOUBLE_EQ(s.sign_agreement, 0.25);
  EXPECT_DOUBLE_EQ(s.residual_l2, 0.0);  // EF explicitly off
}

TEST(FidelityProbe, ErrorFeedbackResidualNormMatchesReconstructionGap) {
  core::GraceConfig cfg;
  cfg.compressor_spec = "topk(0.25)";
  cfg.error_feedback = true;
  Tensor g = Tensor::from(std::vector<float>{8.0f, 0.1f, -0.2f, 0.05f});
  const core::FidelitySample s = probe_one(cfg, g);
  // The EF residual after update is exactly phi - Q^-1(Q(phi)), so its norm
  // factors as rel_error * ||phi||.
  EXPECT_GT(s.residual_l2, 0.0);
  EXPECT_NEAR(s.residual_l2, s.l2_rel_error * s.grad_l2, 1e-9);
}

TEST(FidelityProbe, SignCompressionAgreesInSignEverywhere) {
  core::GraceConfig cfg;
  cfg.compressor_spec = "signsgd";
  cfg.error_feedback = false;
  Tensor g(DType::F32, Shape{{64}});
  Rng rng(11);
  rng.fill_normal(g.f32(), 0.0f, 1.0f);
  const core::FidelitySample s = probe_one(cfg, g);
  EXPECT_DOUBLE_EQ(s.sign_agreement, 1.0);  // signs survive by construction
  EXPECT_GT(s.cosine_similarity, 0.0);
  EXPECT_GT(s.l2_rel_error, 0.0);       // magnitudes do not
  EXPECT_GT(s.compression_ratio, 30.0); // 32 bits -> 1 bit
}

TEST(FidelityProbe, AccumulatesPerTensorAcrossRanksDeterministically) {
  CompressionFidelityProbe probe(/*n_ranks=*/2);
  core::GraceConfig cfg;
  cfg.compressor_spec = "topk(0.5)";
  cfg.error_feedback = false;
  comm::World world(2);
  comm::NetworkModel net;
  net.n_workers = 2;
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      core::GraceWorker worker(cfg, world.comm(rank), net,
                               static_cast<uint64_t>(rank) + 1);
      worker.set_probe(&probe);
      Tensor g = Tensor::full(Shape{{8}}, static_cast<float>(rank + 1));
      for (int step = 0; step < 3; ++step) {
        worker.wait(worker.submit(Tensor(g), "w"));
        worker.wait(worker.submit(Tensor(g), "b"));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(total_samples(probe), 12);  // 2 ranks x 2 tensors x 3 steps
  const auto summaries = probe.summaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].name, "w");  // first-exchanged order
  EXPECT_EQ(summaries[1].name, "b");
  for (const auto& s : summaries) {
    EXPECT_EQ(s.samples, 6);
    EXPECT_EQ(s.numel, 8);
    EXPECT_GT(s.compression_ratio, 0.0);
  }
}

// --- Trainer integration ----------------------------------------------------

struct TinyRun {
  TrainConfig cfg;
  ReplicaFactory factory;
};

TinyRun tiny_run(int workers = 2) {
  data::ImageConfig dc;
  dc.n_train = 64;
  dc.n_test = 20;
  auto data = std::make_shared<const data::ImageDataset>(data::make_images(dc));
  TinyRun r;
  r.factory = [data](uint64_t seed) {
    return std::make_unique<models::CnnSmall>(data, seed);
  };
  r.cfg.n_workers = workers;
  r.cfg.net.n_workers = workers;
  r.cfg.batch_per_worker = 8;
  r.cfg.epochs = 1;
  r.cfg.grace.compressor_spec = "topk(0.1)";
  return r;
}

TEST(FidelityTrainer, SamplesEveryIterationPerTensorPerRank) {
  TinyRun r = tiny_run();
  CompressionFidelityProbe probe(r.cfg.n_workers);
  r.cfg.fidelity = &probe;
  RunResult run = train(r.factory, r.cfg);

  // 64 samples / (2 workers x 8) = 4 iterations, each sampled on every
  // rank.
  const int64_t sampled_iters = 4;
  ASSERT_EQ(static_cast<int64_t>(run.fidelity.size()), run.gradient_tensors);
  for (const auto& t : run.fidelity) {
    EXPECT_EQ(t.samples, sampled_iters * r.cfg.n_workers) << t.name;
    EXPECT_GT(t.compression_ratio, 1.0) << t.name;  // topk compresses
    EXPECT_GT(t.l2_rel_error, 0.0) << t.name;
    EXPECT_GT(t.cosine_similarity, 0.0) << t.name;
    EXPECT_LE(t.cosine_similarity, 1.0) << t.name;
    EXPECT_GT(t.sign_agreement, 0.0) << t.name;
    EXPECT_GT(t.mean_wire_bits, 0.0) << t.name;
  }
  EXPECT_EQ(total_samples(probe),
            sampled_iters * r.cfg.n_workers * run.gradient_tensors);
}

TEST(FidelityTrainer, ProbeAndMetricsDoNotPerturbTraining) {
  TinyRun plain = tiny_run();
  RunResult base = train(plain.factory, plain.cfg);

  TinyRun instrumented = tiny_run();
  CompressionFidelityProbe probe(instrumented.cfg.n_workers);
  MetricRegistry registry(instrumented.cfg.n_workers);
  instrumented.cfg.fidelity = &probe;
  instrumented.cfg.metrics = &registry;
  RunResult observed = train(instrumented.factory, instrumented.cfg);

  ASSERT_EQ(base.epochs.size(), observed.epochs.size());
  for (size_t e = 0; e < base.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(base.epochs[e].train_loss, observed.epochs[e].train_loss);
    EXPECT_DOUBLE_EQ(base.epochs[e].quality, observed.epochs[e].quality);
  }
  EXPECT_DOUBLE_EQ(base.wire_bytes_per_iter, observed.wire_bytes_per_iter);
  // Uninstrumented runs surface nothing.
  EXPECT_TRUE(base.fidelity.empty());
  EXPECT_TRUE(base.metric_histograms.empty());
}

TEST(FidelityTrainer, ObserversSizedForAnotherWorldFailOnTheCallersThread) {
  // Every observer is indexed by physical rank: one sized for a 1-rank
  // world must fail a 2-rank train() before any worker starts, rather than
  // abort a worker thread or throw after the whole run trained.
  Trace trace(1);
  CompressionFidelityProbe probe(1);
  MetricRegistry registry(1);
  CriticalPathCollector collector(1);
  for (int observer = 0; observer < 4; ++observer) {
    SCOPED_TRACE(observer);
    TinyRun r = tiny_run();
    ASSERT_EQ(r.cfg.n_workers, 2);
    if (observer == 0) r.cfg.trace = &trace;
    if (observer == 1) r.cfg.fidelity = &probe;
    if (observer == 2) r.cfg.metrics = &registry;
    if (observer == 3) r.cfg.critical_path = &collector;
    EXPECT_THROW(train(r.factory, r.cfg), std::invalid_argument);
  }
}

TEST(FidelityTrainer, MetricsCoverEveryExchange) {
  TinyRun r = tiny_run();
  MetricRegistry registry(r.cfg.n_workers);
  r.cfg.metrics = &registry;
  RunResult run = train(r.factory, r.cfg);

  // 4 iterations x 2 ranks x gradient_tensors exchanges in total: the
  // count of every per-exchange distribution.
  const uint64_t exchanges =
      4u * 2u * static_cast<uint64_t>(run.gradient_tensors);
  std::vector<std::string> names;
  for (const auto& h : run.metric_histograms) names.push_back(h.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "exchange.comm_ns", "exchange.compress_ns",
                       "exchange.decompress_ns", "exchange.wire_bytes",
                       "sched.bucket_bytes"}));  // sorted

  for (const auto& h : run.metric_histograms) {
    EXPECT_EQ(h.count, exchanges) << h.name;
    uint64_t in_buckets = 0;
    for (uint64_t b : h.buckets) in_buckets += b;
    EXPECT_EQ(in_buckets, h.count) << h.name;
    EXPECT_LE(h.min, h.max) << h.name;
    EXPECT_LE(h.percentile(0.5), h.percentile(0.99)) << h.name;
    if (h.name == "exchange.wire_bytes") {
      EXPECT_GT(h.min, 0.0);
    }
  }
}

// --- MetricRegistry unit behavior -------------------------------------------

TEST(MetricRegistry, Log2BucketBoundaries) {
  EXPECT_EQ(histogram_bucket(0.0), 0);
  EXPECT_EQ(histogram_bucket(-5.0), 0);
  EXPECT_EQ(histogram_bucket(0.99), 0);
  EXPECT_EQ(histogram_bucket(1.0), 1);
  EXPECT_EQ(histogram_bucket(1.99), 1);
  EXPECT_EQ(histogram_bucket(2.0), 2);
  EXPECT_EQ(histogram_bucket(3.9), 2);
  EXPECT_EQ(histogram_bucket(4.0), 3);
  EXPECT_EQ(histogram_bucket(1024.0), 11);
  EXPECT_EQ(histogram_bucket(1.0e300), kHistogramBuckets - 1);
}

TEST(MetricRegistry, MergesRanksDeterministically) {
  MetricRegistry a(3);
  MetricRegistry b(3);
  // Same samples delivered with ranks in different orders: the merged
  // snapshots must be identical because the merge folds ranks 0..n-1.
  for (int rank : {0, 1, 2}) {
    a.observe(rank, "lat", std::ldexp(1.0, rank));  // 1, 2, 4
  }
  for (int rank : {2, 0, 1}) {
    b.observe(rank, "lat", std::ldexp(1.0, rank));
  }
  const auto ha = a.histograms();
  const auto hb = b.histograms();
  ASSERT_EQ(ha.size(), 1u);
  EXPECT_EQ(ha[0].count, 3u);
  EXPECT_DOUBLE_EQ(ha[0].sum, hb[0].sum);
  EXPECT_DOUBLE_EQ(ha[0].min, 1.0);
  EXPECT_DOUBLE_EQ(ha[0].max, 4.0);
  EXPECT_EQ(ha[0].buckets, hb[0].buckets);
  // 1 -> bucket 1, 2 -> bucket 2, 4 -> bucket 3.
  EXPECT_EQ(ha[0].buckets[1], 1u);
  EXPECT_EQ(ha[0].buckets[2], 1u);
  EXPECT_EQ(ha[0].buckets[3], 1u);
}

TEST(MetricRegistry, PercentilesRespectTheEnvelope) {
  MetricRegistry reg(1);
  for (int i = 0; i < 1000; ++i) {
    reg.observe(0, "v", 10.0);  // tight distribution...
  }
  reg.observe(0, "v", 100000.0);  // ...with one outlier
  const auto h = reg.histograms();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_GE(h[0].percentile(0.0), h[0].min);
  EXPECT_DOUBLE_EQ(h[0].percentile(1.0), 100000.0);
  // p50 lands in the bucket holding 10.0 ([8,16), midpoint ~11.3).
  EXPECT_GT(h[0].percentile(0.5), 8.0);
  EXPECT_LT(h[0].percentile(0.5), 16.0);
  // p99 must not be dragged to the outlier by 0.1% of samples.
  EXPECT_LT(h[0].percentile(0.99), 16.0);
}

// --- JSON surfaces -----------------------------------------------------------

TEST(FidelityJson, RunResultWithFidelityAndMetricsParses) {
  TinyRun r = tiny_run();
  CompressionFidelityProbe probe(r.cfg.n_workers);
  MetricRegistry registry(r.cfg.n_workers);
  r.cfg.fidelity = &probe;
  r.cfg.metrics = &registry;
  RunResult run = train(r.factory, r.cfg);

  const std::string json = run_result_json(run);
  const util::json::Value doc = util::json::parse(json);
  const std::vector<util::json::Value>& fidelity = doc.at("fidelity").array();
  ASSERT_FALSE(fidelity.empty());
  for (const char* key : {"compression_ratio", "l2_rel_error",
                          "cosine_similarity", "sign_agreement",
                          "residual_l2"}) {
    EXPECT_NO_THROW(fidelity[0].at(key)) << "missing key: " << key;
  }
  const std::vector<util::json::Value>& histograms =
      doc.at("metrics").at("histograms").array();
  ASSERT_FALSE(histograms.empty());
  for (const char* key : {"p50", "p99", "buckets"}) {
    EXPECT_NO_THROW(histograms[0].at(key)) << "missing key: " << key;
  }
}

TEST(FidelityJson, BenchDocumentShapeParses) {
  // The exact wrapper bench_fidelity writes around run_result_json; the
  // strict checker validating it here is the ctest stand-in for validating
  // BENCH_fidelity.json itself.
  TinyRun r = tiny_run();
  CompressionFidelityProbe probe(r.cfg.n_workers);
  r.cfg.fidelity = &probe;
  RunResult run = train(r.factory, r.cfg);

  std::string doc = "{\"benchmark\":\"fidelity\",\"scale\":0.1,"
                    "\"runs\":[{\"compressor\":\"topk(0.1)\",\"result\":";
  doc += run_result_json(run);
  doc += "}]}";
  const util::json::Value parsed = util::json::parse(doc);
  EXPECT_EQ(parsed.at("benchmark").string(), "fidelity");
  const util::json::Value& cell = parsed.at("runs").array().at(0);
  EXPECT_EQ(cell.at("compressor").string(), "topk(0.1)");
  EXPECT_NO_THROW(cell.at("result").at("fidelity").array());
}

TEST(ChromeTrace, ExportIsValidTraceEventJson) {
  TinyRun r = tiny_run();
  Trace trace(r.cfg.n_workers);
  r.cfg.trace = &trace;
  train(r.factory, r.cfg);

  const std::string json = trace_chrome_json(trace);
  const util::json::Value doc = util::json::parse(json);
  EXPECT_EQ(doc.at("displayTimeUnit").string(), "ms");
  int complete_events = 0;
  for (const util::json::Value& ev : doc.at("traceEvents").array()) {
    for (const char* key : {"pid", "tid", "name", "args"}) {
      EXPECT_NO_THROW(ev.at(key)) << "missing key: " << key;
    }
    if (ev.at("ph").string() != "X") continue;
    ++complete_events;
    for (const char* key : {"ts", "dur", "cat"}) {
      EXPECT_NO_THROW(ev.at(key)) << "missing key: " << key;
    }
  }
  EXPECT_GT(complete_events, 0);
  // Both ranks become named tracks and every phase appears as a slice.
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  for (const char* phase : {"forward", "backward", "compress", "comm",
                            "decompress", "optimizer"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + phase + "\""),
              std::string::npos)
        << phase;
  }
}

TEST(ChromeTrace, LaysEventsEndToEndPerRank) {
  Trace trace(2);
  trace.record(0, TraceEvent{0, 0, 0, Phase::Forward, -1, 1.0, 0});
  trace.record(0, TraceEvent{0, 0, 0, Phase::Backward, -1, 2.0, 0});
  trace.record(1, TraceEvent{0, 0, 1, Phase::Forward, -1, 0.5, 0});
  const std::string json = trace_chrome_json(trace);
  ASSERT_NO_THROW(util::json::parse(json)) << json;
  // Rank 0's second slice starts where the first ended (1 s = 1e6 us);
  // rank 1's cursor is independent and starts at 0.
  EXPECT_NE(json.find("\"ts\":1000000,\"dur\":2000000"), std::string::npos)
      << json;
  const size_t rank1 = json.find("\"tid\":1,\"name\":\"forward\"");
  ASSERT_NE(rank1, std::string::npos);
  EXPECT_NE(json.find("\"ts\":0,\"dur\":500000", rank1), std::string::npos);
}

}  // namespace
}  // namespace grace::sim
