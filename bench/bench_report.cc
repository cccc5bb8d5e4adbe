// Run-report regression gate (docs/OBSERVABILITY.md §4): a fixed, fast,
// deterministic matrix of training runs — compressors x accounting modes
// plus one faulted cell — each distilled into a RunReport and written to
// BENCH_report.json, one cell per line so every line is a self-contained
// report document.
//
//   bench_report                      # run the matrix, write BENCH_report.json
//   bench_report --ci <baseline.json> # additionally diff every cell against
//                                     # the committed baseline and exit
//                                     # non-zero on any regression verdict
//
// The diff rules live in sim/report.cc: exact for fully simulated
// quantities (wire protocol, CRCs, fault counters), tight tolerance for
// deterministic simulated times, loose tolerance for measured codec
// timings — so the gate passes across machines but demonstrably fails on
// an injected slowdown (e.g. a scaled compression_time_scale). Wired as
// the slow-tier ctest `bench_report_check`.
//
// GRACE_TIME_SCALE=<f> multiplies TimeModel::compression_time_scale in
// every cell — the chaos lever for verifying the gate actually trips:
//   GRACE_TIME_SCALE=1000 bench_report --ci BENCH_report.baseline.json
// must exit non-zero.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/critical_path.h"
#include "sim/metric_registry.h"
#include "sim/report.h"
#include "sim/tasks.h"

namespace {

struct Cell {
  const char* label;
  const char* compressor;
  bool overlap;
  bool faulted;
};

// The fixed matrix: the paper's three headline compressors, both
// accounting modes, one deterministic fault scenario. Small task scale so
// the CI gate stays in the slow-test budget.
constexpr Cell kCells[] = {
    {"none-additive", "none", false, false},
    {"topk-overlap", "topk(0.01)", true, false},
    {"qsgd-additive", "qsgd(64)", false, false},
    {"topk-faults", "topk(0.01)", false, true},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace grace;

  const char* baseline_path = bench::ci_baseline_arg(argc, argv, "bench_report");

  sim::Benchmark bench = sim::make_cnn_classification(0.1);
  // Deterministic straggler + drop scenario for the faulted cell: rank 1
  // stalls every iteration, the link drops ~2% of delivery attempts.
  faults::FaultSpec spec;
  spec.seed = 7;
  spec.drop_prob = 0.02;
  spec.straggler_prob = 1.0;
  spec.straggler_rank = 1;
  spec.straggler_delay_s = 5e-3;
  const faults::FaultPlan plan(spec);

  std::vector<std::pair<std::string, std::string>> rows;  // label, report json
  for (const Cell& cell : kCells) {
    sim::TrainConfig cfg = sim::default_config(bench);
    cfg.grace.compressor_spec = cell.compressor;
    cfg.time.overlap = cell.overlap;
    if (const char* s = std::getenv("GRACE_TIME_SCALE")) {
      cfg.time.compression_time_scale *= std::atof(s);
    }
    bench::apply_paper_overrides(cell.compressor, cfg,
                                 /*classification_task=*/true);
    if (cell.faulted) cfg.faults = &plan;
    sim::MetricRegistry registry(cfg.n_workers);
    sim::CriticalPathCollector collector(cfg.n_workers);
    cfg.metrics = &registry;
    cfg.critical_path = &collector;

    const sim::RunResult run = sim::train(bench.factory, cfg);
    const sim::RunReport report = sim::build_run_report(run, {}, &registry);
    rows.emplace_back(cell.label, sim::run_report_json(report));
    std::printf("--- %s ---\n%s\n", cell.label,
                sim::run_report_text(report).c_str());
  }

  return bench::report_gate("report", rows, baseline_path);
}
