// The run-level trace facility: per-rank event order, phase accounting
// invariants, JSON serialization, and the e2e smoke run that stands in for
// bench_e2e in the default test suite (the default build compiles that
// bench, but no test runs it).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "data/synthetic_images.h"
#include "models/cnn_small.h"
#include "sim/tasks.h"
#include "sim/trace.h"
#include "util/json.h"

namespace grace::sim {
namespace {

TEST(Trace, PhaseNamesCoverTaxonomy) {
  EXPECT_STREQ(phase_name(Phase::Forward), "forward");
  EXPECT_STREQ(phase_name(Phase::Backward), "backward");
  EXPECT_STREQ(phase_name(Phase::Compress), "compress");
  EXPECT_STREQ(phase_name(Phase::Comm), "comm");
  EXPECT_STREQ(phase_name(Phase::Decompress), "decompress");
  EXPECT_STREQ(phase_name(Phase::Optimizer), "optimizer");
}

TEST(Trace, RecordsPerRankOldestFirst) {
  Trace trace(2);
  for (int i = 0; i < 3; ++i) {
    trace.record(0, TraceEvent{0, i, 0, Phase::Compress, i, 0.5, 0});
  }
  trace.record(1, TraceEvent{0, 9, 1, Phase::Comm, -1, 0.25, 64});
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].iter, 0);
  EXPECT_EQ(events[1].iter, 1);
  EXPECT_EQ(events[2].iter, 2);
  EXPECT_EQ(events[3].rank, 1);
  EXPECT_EQ(events[3].bytes, 64u);
}

// --- Traced end-to-end runs -------------------------------------------------

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

TEST(TraceSmoke, TracedRunEmitsValidJsonWithAllPhases) {
  // The ctest stand-in for bench_e2e: a 2-worker, 1-epoch traced run whose
  // serialized result must parse and carry every phase key of the taxonomy.
  TinyRun r = tiny_run();
  Trace trace(r.cfg.n_workers);
  r.cfg.trace = &trace;
  RunResult run = train(r.factory, r.cfg);

  const std::string json = run_result_json(run);
  const util::json::Value doc = util::json::parse(json);
  for (const char* key :
       {"phases", "iteration_seconds", "wire_bytes_per_iter", "tensors",
        "samples_dropped_per_epoch", "fidelity", "metrics", "faults"}) {
    EXPECT_NO_THROW(doc.at(key)) << "missing key: " << key;
  }
  for (const char* phase : {"forward", "backward", "compress", "comm",
                            "decompress", "optimizer"}) {
    EXPECT_NO_THROW(doc.at("phases").at(phase)) << "missing phase: " << phase;
  }
  EXPECT_NO_THROW(doc.at("metrics").at("histograms"));
  // Every faults::FaultCounters field.
  for (const char* key :
       {"attempts_staged", "drops_detected", "corruptions_detected",
        "retries", "retransmitted_bytes", "retry_stall_seconds",
        "straggler_events", "straggler_stall_seconds", "rounds_skipped",
        "crashed_ranks", "degraded_iters", "leaves", "joins",
        "sat_out_rounds", "outages", "outage_stall_seconds"}) {
    EXPECT_NO_THROW(doc.at("faults").at(key)) << "missing key: " << key;
  }
}

TEST(TraceSmoke, PhasesSumToIterationTime) {
  TinyRun r = tiny_run();
  Trace trace(r.cfg.n_workers);
  r.cfg.trace = &trace;
  RunResult run = train(r.factory, r.cfg);

  // Acceptance bound from the issue is 5%; the accounting is exact by
  // construction, so hold it to float noise.
  const double total = run.phases.total_s();
  ASSERT_GT(total, 0.0);
  const double iters =
      static_cast<double>(run.epochs.size()) *
      static_cast<double>(run.samples_per_epoch) /
      static_cast<double>(r.cfg.n_workers * r.cfg.batch_per_worker);
  const double mean_iter = run.total_sim_seconds / iters;
  EXPECT_NEAR(total, mean_iter, mean_iter * 0.05);
  EXPECT_NEAR(total, mean_iter, mean_iter * 1e-9);
  // The coarse legacy columns agree with the fine-grained view.
  EXPECT_NEAR(run.phases.forward_s + run.phases.backward_s, run.compute_s,
              run.compute_s * 1e-9);
  EXPECT_NEAR(run.phases.compress_s + run.phases.decompress_s, run.compress_s,
              run.compress_s * 1e-9 + 1e-15);
}

TEST(TraceSmoke, TracingDoesNotPerturbTraining) {
  TinyRun a = tiny_run();
  RunResult untraced = train(a.factory, a.cfg);

  TinyRun b = tiny_run();
  Trace trace(b.cfg.n_workers);
  b.cfg.trace = &trace;
  RunResult traced = train(b.factory, b.cfg);

  ASSERT_EQ(untraced.epochs.size(), traced.epochs.size());
  for (size_t e = 0; e < untraced.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(untraced.epochs[e].train_loss, traced.epochs[e].train_loss);
    EXPECT_DOUBLE_EQ(untraced.epochs[e].quality, traced.epochs[e].quality);
  }
  EXPECT_DOUBLE_EQ(untraced.wire_bytes_per_iter, traced.wire_bytes_per_iter);
}

TEST(TraceSmoke, TensorTraceCoversEveryGradientTensor) {
  TinyRun r = tiny_run();
  Trace trace(r.cfg.n_workers);
  r.cfg.trace = &trace;
  RunResult run = train(r.factory, r.cfg);

  ASSERT_EQ(static_cast<int64_t>(run.tensor_trace.size()),
            run.gradient_tensors);
  const int64_t iters = static_cast<int64_t>(run.epochs.size()) *
                        run.samples_per_epoch /
                        (r.cfg.n_workers * r.cfg.batch_per_worker);
  int64_t numel_total = 0;
  for (const auto& t : run.tensor_trace) {
    EXPECT_FALSE(t.name.empty());
    EXPECT_GT(t.numel, 0);
    EXPECT_EQ(t.exchanges, iters) << t.name;  // one exchange per iteration
    EXPECT_GT(t.wire_bytes, 0u) << t.name;
    numel_total += t.numel;
  }
  EXPECT_EQ(numel_total, run.model_parameters);

  // Untraced runs leave the per-tensor view empty.
  TinyRun u = tiny_run();
  EXPECT_TRUE(train(u.factory, u.cfg).tensor_trace.empty());
}

TEST(TraceSmoke, BucketStagesTileOnAHeterogeneousFleet) {
  // The trace carries the seconds the run was charged: on a fleet whose
  // rank 1 computes 3x slower, that rank's codec stages stretch like its
  // timeline, so under additive accounting each bucket's compress, comm and
  // decompress events tile end to start, exactly, on every rank.
  TinyRun r = tiny_run();
  r.cfg.fusion_bytes = SIZE_MAX;
  r.cfg.fleet = comm::FleetProfile(
      {comm::LinkProfile{}, comm::LinkProfile{1.0, 1.0, 3.0}});
  Trace trace(r.cfg.n_workers);
  r.cfg.trace = &trace;
  const RunResult run = train(r.factory, r.cfg);
  ASSERT_FALSE(run.overlap_enabled);

  const std::vector<TraceEvent> events = trace.events();
  int tiled = 0;
  for (size_t i = 0; i + 2 < events.size(); ++i) {
    if (events[i].phase != Phase::Compress) continue;
    const TraceEvent& compress = events[i];
    const TraceEvent& comm = events[i + 1];
    const TraceEvent& decompress = events[i + 2];
    SCOPED_TRACE(::testing::Message() << "rank " << compress.rank << " epoch "
                                      << compress.epoch << " iter "
                                      << compress.iter);
    ASSERT_EQ(comm.phase, Phase::Comm);
    ASSERT_EQ(decompress.phase, Phase::Decompress);
    EXPECT_EQ(comm.start_s, compress.start_s + compress.seconds);
    EXPECT_EQ(decompress.start_s, comm.start_s + comm.seconds);
    ++tiled;
  }
  // One bucket per rank-iteration.
  const int64_t iters = static_cast<int64_t>(run.epochs.size()) *
                        run.samples_per_epoch /
                        (r.cfg.n_workers * r.cfg.batch_per_worker);
  EXPECT_EQ(tiled, iters * r.cfg.n_workers);
}

TEST(TraceSmoke, FusedRunTracesOneBucket) {
  TinyRun r = tiny_run();
  r.cfg.fusion_bytes = SIZE_MAX;
  Trace trace(r.cfg.n_workers);
  r.cfg.trace = &trace;
  RunResult run = train(r.factory, r.cfg);
  ASSERT_EQ(run.tensor_trace.size(), 1u);
  EXPECT_EQ(run.tensor_trace[0].name, "fused");
  EXPECT_EQ(run.tensor_trace[0].numel, run.model_parameters);
}

}  // namespace
}  // namespace grace::sim
