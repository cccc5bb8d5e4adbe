// Run reports (sim/report.h): scoreboard construction, deterministic
// serialization, the health detectors, and the regression-diff verdict —
// including the CI contract that a diff passes against a fresh same-seed
// rerun but fails on an injected slowdown or a vanished metric.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "faults/counters.h"
#include "faults/fault_plan.h"
#include "sim/critical_path.h"
#include "sim/report.h"
#include "sim/tasks.h"
#include "sim/trace.h"
#include "sim/trainer.h"
#include "util/json.h"

namespace grace::sim {
namespace {

Benchmark tiny_cnn() { return make_cnn_classification(0.1); }

TrainConfig tiny_config(const Benchmark& b, int workers = 4) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = workers;
  cfg.net.n_workers = workers;
  cfg.epochs = 2;
  return cfg;
}

const ReportMetric* find_metric(const RunReport& r, std::string_view name) {
  for (const ReportMetric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const HealthFlag* find_flag(const RunReport& r, std::string_view name) {
  for (const HealthFlag& f : r.flags) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool has_flag(const RunReport& r, std::string_view name) {
  return find_flag(r, name) != nullptr;
}

TEST(RunReport, CarriesTheScoreboardAndSerializesDeterministically) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.01)";
  CriticalPathCollector collector(cfg.n_workers);
  cfg.critical_path = &collector;
  const RunResult run = train(b.factory, cfg);

  const RunReport report = build_run_report(run);
  EXPECT_EQ(report.model, run.model);
  EXPECT_EQ(report.compressor, "topk(0.01)");
  EXPECT_TRUE(report.critical_path.collected);

  // The scoreboard rows a diff consumer depends on.
  for (const char* name :
       {"parameters_crc32", "replicas_in_sync", "comm_messages",
        "wire_bytes_per_iter", "iteration_seconds", "final_quality",
        "critical_path.compute_share", "whatif.infinite_bandwidth.speedup",
        "health.flags"}) {
    EXPECT_NE(find_metric(report, name), nullptr) << name;
  }
  EXPECT_EQ(find_metric(report, "health.flags")->value,
            static_cast<double>(report.flags.size()));

  // The JSON is a pure function of the report: parse-clean, stable keys,
  // byte-identical on re-serialization.
  const std::string json = run_report_json(report);
  const util::json::Value doc = util::json::parse(json);
  for (const char* key : {"schema", "model", "compressor", "topology",
                          "quality_metric", "overlap", "metrics", "flags",
                          "critical_path"}) {
    EXPECT_NO_THROW(doc.at(key)) << key;
  }
  EXPECT_EQ(json, run_report_json(report));

  // The human summary mentions the essentials without throwing.
  const std::string text = run_report_text(report);
  EXPECT_NE(text.find("run report"), std::string::npos);
  EXPECT_NE(text.find("topk(0.01)"), std::string::npos);
}

TEST(RunReport, SameSeedRunsAgreeOnDeterministicMetricsAndPassTheDiff) {
  // The simulated side of the hybrid time accounting is a pure function of
  // the seed, so those scoreboard rows must match bitwise across reruns;
  // only the measured codec timings may drift, and the diff rules absorb
  // exactly that drift — a same-seed rerun must produce a PASS verdict.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "qsgd(64)";
  CriticalPathCollector c1(cfg.n_workers), c2(cfg.n_workers);
  cfg.critical_path = &c1;
  const RunResult r1 = train(b.factory, cfg);
  cfg.critical_path = &c2;
  const RunResult r2 = train(b.factory, cfg);
  const RunReport a = build_run_report(r1);
  const RunReport bb = build_run_report(r2);

  for (const char* name :
       {"parameters_crc32", "replicas_in_sync", "model_parameters",
        "gradient_tensors", "buckets_per_iter", "epochs", "samples_per_epoch",
        "comm_messages", "comm_payload_bytes", "wire_bytes_per_iter",
        "compute_seconds", "comm_seconds", "optimizer_seconds",
        "stall_seconds", "final_quality", "best_quality",
        "critical_path.iterations", "health.flags"}) {
    const ReportMetric* ma = find_metric(a, name);
    const ReportMetric* mb = find_metric(bb, name);
    ASSERT_NE(ma, nullptr) << name;
    ASSERT_NE(mb, nullptr) << name;
    EXPECT_EQ(ma->value, mb->value) << name;
  }

  const ReportDiff diff = diff_reports(run_report_json(a), run_report_json(bb));
  EXPECT_TRUE(diff.pass) << report_diff_text(diff);
  EXPECT_TRUE(diff.failures.empty());
  EXPECT_FALSE(diff.deltas.empty());
}

TEST(RunReport, StragglerRunRaisesHealthFlags) {
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.straggler_prob = 1.0;
  spec.straggler_rank = 2;
  spec.straggler_delay_s = 0.05;  // dwarfs the sub-ms iteration
  const faults::FaultPlan plan(spec);
  TrainConfig cfg = tiny_config(b);
  cfg.faults = &plan;
  const RunResult run = train(b.factory, cfg);

  const RunReport report = build_run_report(run);
  EXPECT_TRUE(has_flag(report, "stall_share"));
  EXPECT_GE(report.flags.size(), 2u);
  // Only rank 2 stalls, so the per-rank stalls single it out. With every
  // other rank at 0 the flag's value is rank 2's stall in seconds.
  ASSERT_EQ(run.rank_stall_s.size(), static_cast<size_t>(cfg.n_workers));
  for (size_t r = 0; r < run.rank_stall_s.size(); ++r) {
    EXPECT_EQ(run.rank_stall_s[r] > 0.0, r == 2) << "rank " << r;
  }
  const HealthFlag* straggler = find_flag(report, "straggler_outlier");
  ASSERT_NE(straggler, nullptr);
  EXPECT_EQ(straggler->value, run.rank_stall_s[2]);
  EXPECT_EQ(straggler->detail.rfind("rank 2 stalled ", 0), 0u)
      << straggler->detail;
}

TEST(RunReport, SyntheticSignalsTripEveryDetector) {
  RunResult result;
  result.model = "synthetic";
  result.iteration_s = 1.0;
  result.phases.stall_s = 0.2;         // stall_share 20% > 5%
  result.comm_messages = 100;
  result.faults.retries = 20;          // retry_storm 20% > 10%
  TensorFidelitySummary fid;
  fid.name = "g";
  fid.samples = 5;
  fid.cosine_similarity = 0.5;         // below the 0.70 floor
  fid.sign_agreement = 0.5;            // below the 0.60 floor
  result.fidelity.push_back(fid);
  result.overlap_enabled = true;
  result.compress_s = 0.2;
  result.phases.comm_s = 0.3;                 // 50% exchange share...
  result.overlap_fraction = 0.01;      // ...but only 1% recovered
  result.rank_stall_s = {0.1, 0.5, 0.1, 0.1};  // rank 1 at 5x the rest

  const RunReport report = build_run_report(result);
  EXPECT_TRUE(has_flag(report, "stall_share"));
  EXPECT_TRUE(has_flag(report, "straggler_outlier"));
  EXPECT_TRUE(has_flag(report, "retry_storm"));
  EXPECT_TRUE(has_flag(report, "fidelity_collapse"));
  EXPECT_TRUE(has_flag(report, "overlap_regression"));
  EXPECT_EQ(find_metric(report, "health.flags")->value, 5.0);

  // Signals just inside every threshold raise nothing.
  result.phases.stall_s = 0.04;        // stall_share 4% < 5%
  result.rank_stall_s = {0.1, 0.35, 0.1, 0.1};  // 3.5x < 4x
  result.faults.retries = 9;           // retry_storm 9% < 10%
  result.fidelity[0].cosine_similarity = 0.75;
  result.fidelity[0].sign_agreement = 0.65;
  result.overlap_fraction = 0.06;
  const RunReport quiet = build_run_report(result);
  EXPECT_TRUE(quiet.flags.empty());
  EXPECT_EQ(find_metric(quiet, "health.flags")->value, 0.0);
}

TEST(RunReport, DiffPassesOnItself) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  CriticalPathCollector collector(cfg.n_workers);
  cfg.critical_path = &collector;
  const RunResult run = train(b.factory, cfg);
  const std::string json = run_report_json(build_run_report(run));

  const ReportDiff diff = diff_reports(json, json);
  EXPECT_TRUE(diff.pass);
  EXPECT_TRUE(diff.failures.empty());
  ASSERT_FALSE(diff.deltas.empty());
  for (const MetricDelta& d : diff.deltas) {
    EXPECT_FALSE(d.failed) << d.name;
    EXPECT_EQ(d.delta, 0.0) << d.name;
  }
}

TEST(RunReport, DiffFailsOnInjectedSlowdown) {
  // The chaos drill behind the bench_report_check gate: scale the measured
  // codec pricing 1000x and the loose measured-timing rules must still
  // trip.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.01)";
  CriticalPathCollector c1(cfg.n_workers), c2(cfg.n_workers);
  cfg.critical_path = &c1;
  const RunResult baseline = train(b.factory, cfg);
  cfg.time.compression_time_scale *= 1000.0;
  cfg.critical_path = &c2;
  const RunResult slowed = train(b.factory, cfg);

  const ReportDiff diff =
      diff_reports(run_report_json(build_run_report(baseline)),
                   run_report_json(build_run_report(slowed)));
  EXPECT_FALSE(diff.pass);
  ASSERT_FALSE(diff.failures.empty());
  bool timing_failed = false;
  for (const MetricDelta& d : diff.deltas) {
    if (d.failed && (d.name == "iteration_seconds" ||
                     d.name == "compress_seconds" ||
                     d.name == "total_sim_seconds")) {
      timing_failed = true;
    }
  }
  EXPECT_TRUE(timing_failed);
}

TEST(RunReport, VanishedBaselineMetricFailsUnknownMetricIsANote) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.epochs = 1;
  const RunResult run = train(b.factory, cfg);
  const std::string json = run_report_json(build_run_report(run));

  // Rename one metric: the baseline's row vanishes from the current report
  // (fail) and an unknown row appears (note, not fail).
  std::string renamed = json;
  const size_t at = renamed.find("\"comm_messages\"");
  ASSERT_NE(at, std::string::npos);
  renamed.replace(at, 15, "\"comm_messagesX\"");

  const ReportDiff diff = diff_reports(json, renamed);
  EXPECT_FALSE(diff.pass);
  bool missing_reported = false;
  for (const std::string& f : diff.failures) {
    if (f.find("comm_messages") != std::string::npos) missing_reported = true;
  }
  EXPECT_TRUE(missing_reported);
  bool unknown_noted = false;
  for (const std::string& n : diff.notes) {
    if (n.find("comm_messagesX") != std::string::npos) unknown_noted = true;
  }
  EXPECT_TRUE(unknown_noted);

  // The reverse direction loses comm_messagesX and gains comm_messages, an
  // exact-rule row its baseline lacks: both fail.
  const ReportDiff gained = diff_reports(renamed, json);
  EXPECT_FALSE(gained.pass);
  bool gained_reported = false;
  for (const std::string& f : gained.failures) {
    gained_reported = gained_reported ||
                      f.find("missing from baseline: comm_messages ") !=
                          std::string::npos;
  }
  EXPECT_TRUE(gained_reported);
}

// The report with metric row `name` cut out of its "metrics" object
// (other objects of the report reuse some names).
std::string without_row(const std::string& report, const std::string& name) {
  const size_t open = report.find("\"metrics\":{");
  const size_t close = report.find('}', open);
  const size_t at = report.find("\"" + name + "\":", open);
  if (open == std::string::npos || at == std::string::npos || at > close) {
    return report;
  }
  const size_t end = report.find_first_of(",}", at);
  return report[end] == ','
             ? report.substr(0, at) + report.substr(end + 1)
             : report.substr(0, at - 1) + report.substr(end);  // drop the comma before
}

std::string read_source_file(const std::string& file) {
  std::ifstream in(std::string(GRACE_SOURCE_DIR) + "/" + file);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(RunReport, DeletingAnyGatedBaselineRowFailsTheGate) {
  // bench_report_check and bench_resilience_check diff each cell of their
  // committed baseline against a fresh run. Here the committed cell itself
  // stands in for the fresh run: cut any one row with a non-note rule out
  // of a copy of the baseline and the diff must fail, since the current
  // report then carries a gated row the baseline never recorded. Deleting
  // a note row stays a note. Every fault.* row must be in every cell.
  for (const char* file :
       {"BENCH_report.baseline.json", "BENCH_resilience.baseline.json"}) {
    const std::string text = read_source_file(file);
    ASSERT_FALSE(text.empty()) << file;
    const util::json::Value doc = util::json::parse(text);
    int cells = 0;
    for (const util::json::Value& cell : doc.at("cells").array()) {
      ++cells;
      SCOPED_TRACE(std::string(file) + ": " + cell.at("label").string());
      const std::string report(cell.at("report").text());
      const ReportDiff self = diff_reports(report, report);
      ASSERT_TRUE(self.pass) << report_diff_text(self);
      int gated = 0;
      for (const MetricDelta& d : self.deltas) {
        const std::string cut = without_row(report, d.name);
        ASSERT_NE(cut, report) << d.name;
        const ReportDiff diff = diff_reports(cut, report);
        EXPECT_EQ(diff.pass, d.rule == "note") << d.name << " (" << d.rule << ")";
        gated += d.rule != "note";
      }
      EXPECT_GT(gated, 0);
      const util::json::Value& metrics = cell.at("report").at("metrics");
      for (const faults::FaultField& f : faults::kFaultFields) {
        EXPECT_NO_THROW(metrics.at("fault." + std::string(f.name))) << f.name;
      }
    }
    EXPECT_GT(cells, 0) << file;
  }
}

TEST(RunReport, NonJsonNumberInAGatedRowFails) {
  // Every comparison with NaN is false: a reader that took a `nan` token
  // as NaN would pass any rule. The diff must fail a `nan` in a rel row
  // (iteration_seconds, rel<=1) or an abs row (final_quality, abs<=1e-6),
  // on either side, as a document off the grammar.
  const std::string text = read_source_file("BENCH_report.baseline.json");
  const util::json::Value doc = util::json::parse(text);
  const util::json::Value* cell = nullptr;
  for (const util::json::Value& c : doc.at("cells").array()) {
    if (c.at("label").string() == "none-additive") cell = &c;
  }
  ASSERT_NE(cell, nullptr);
  const util::json::Value& committed = cell->at("report");
  const std::string report(committed.text());
  ASSERT_TRUE(diff_reports(report, report).pass);
  for (const char* row : {"iteration_seconds", "final_quality"}) {
    const std::string cell_row = "\"" + std::string(row) + "\":" +
        std::string(committed.at("metrics").at(row).text());
    const size_t at = report.find(cell_row);
    ASSERT_NE(at, std::string::npos) << row;
    std::string broken = report;
    broken.replace(at, cell_row.size(), "\"" + std::string(row) + "\":nan");
    EXPECT_FALSE(diff_reports(broken, report).pass) << row;
    EXPECT_FALSE(diff_reports(report, broken).pass) << row;
  }

  // The emitter writes a NaN metric as null, which parses, and the diff
  // fails the gated row by name, on either side.
  RunResult run;
  run.final_quality = std::numeric_limits<double>::quiet_NaN();
  const std::string json = run_report_json(build_run_report(run));
  ASSERT_NE(json.find("\"final_quality\":null,"), std::string::npos);
  EXPECT_NO_THROW(util::json::parse(json));
  const ReportDiff diff = diff_reports(json, json);
  EXPECT_FALSE(diff.pass);
  ASSERT_FALSE(diff.failures.empty());
  EXPECT_EQ(diff.failures[0].rfind("final_quality: null", 0), 0u)
      << diff.failures[0];
  for (const char* row : {"iteration_seconds", "final_quality"}) {
    const std::string cell_row = "\"" + std::string(row) + "\":" +
        std::string(committed.at("metrics").at(row).text());
    std::string nulled = report;
    nulled.replace(report.find(cell_row), cell_row.size(),
                   "\"" + std::string(row) + "\":null");
    for (const ReportDiff& d :
         {diff_reports(nulled, report), diff_reports(report, nulled)}) {
      EXPECT_FALSE(d.pass) << row;
      ASSERT_EQ(d.failures.size(), 1u) << row;
      EXPECT_EQ(d.failures[0].rfind(std::string(row) + ": null", 0), 0u)
          << d.failures[0];
    }
  }
}

TEST(RunReport, FlagChangesAreNotesNotFailures) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.epochs = 1;
  const RunResult run = train(b.factory, cfg);
  const RunReport clean = build_run_report(run);
  RunReport flagged = clean;
  flagged.flags.push_back(
      HealthFlag{"synthetic_flag", "injected by the test", 2.0, 1.0});

  const ReportDiff raised =
      diff_reports(run_report_json(clean), run_report_json(flagged));
  EXPECT_TRUE(raised.pass) << report_diff_text(raised);
  bool noted = false;
  for (const std::string& n : raised.notes) {
    if (n.find("raised") != std::string::npos &&
        n.find("synthetic_flag") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);

  const ReportDiff cleared =
      diff_reports(run_report_json(flagged), run_report_json(clean));
  EXPECT_TRUE(cleared.pass);
  bool cleared_noted = false;
  for (const std::string& n : cleared.notes) {
    if (n.find("cleared") != std::string::npos) cleared_noted = true;
  }
  EXPECT_TRUE(cleared_noted);
}

TEST(RunReport, EveryFaultCounterHasOneJsonKeyAndOneScoredRow) {
  // faults::kFaultFields is the one list of FaultCounters' fields: each
  // appears once in run_result_json's "faults" object and once as a
  // fault.<name> report row, diffed exactly as a count or at rel 1e-6 as
  // simulated seconds. Distinct values catch a row reading another member.
  RunResult run;
  for (size_t i = 0; i < std::size(faults::kFaultFields); ++i) {
    const faults::FaultField& f = faults::kFaultFields[i];
    if (f.count != nullptr) {
      run.faults.*f.count = 100 + i;
    } else {
      run.faults.*f.seconds = 0.25 * static_cast<double>(i + 1);
    }
  }
  const std::string json = run_result_json(run);
  const util::json::Value doc = util::json::parse(json);
  const util::json::Value& object = doc.at("faults");
  const RunReport report = build_run_report(run);
  const std::string report_json = run_report_json(report);
  const ReportDiff diff = diff_reports(report_json, report_json);
  ASSERT_TRUE(diff.pass) << report_diff_text(diff);

  size_t rows = 0;
  for (const ReportMetric& m : report.metrics) {
    rows += m.name.starts_with("fault.") ? 1 : 0;
  }
  EXPECT_EQ(rows, std::size(faults::kFaultFields));
  // The reader rejects a repeated key, so one member per field is exact.
  EXPECT_EQ(object.object().size(), std::size(faults::kFaultFields));
  for (const faults::FaultField& f : faults::kFaultFields) {
    SCOPED_TRACE(std::string(f.name));
    const double value = f.value(run.faults);
    EXPECT_EQ(object.at(f.name).number(), value);

    const std::string row = "fault." + std::string(f.name);
    const ReportMetric* m = find_metric(report, row);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->value, value);
    for (const MetricDelta& d : diff.deltas) {
      if (d.name == row) {
        EXPECT_EQ(d.rule, f.count != nullptr ? "exact" : "rel<=1e-06");
      }
    }
  }
}

}  // namespace
}  // namespace grace::sim
