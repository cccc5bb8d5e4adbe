// Run reports (docs/OBSERVABILITY.md §4): the verdict layer over a
// finished RunResult. Three pieces:
//
//   * build_run_report — distills the run into a flat, name-keyed metric
//     scoreboard plus seeded deterministic health detectors (straggler
//     outliers, retry storms, fidelity collapse, overlap regression).
//     Detectors read only simulated / deterministic signals of the
//     RunResult, so the same seed always produces the same flags.
//
//   * run_report_json / run_report_text — machine and human serializations
//     of the report. The JSON is a pure function of the report (identical
//     runs serialize byte-identically) and embeds the critical-path
//     summary (sim/critical_path.h).
//
//   * diff_reports — compares two report JSONs (a committed baseline vs a
//     fresh run) and returns a pass/fail regression verdict with
//     per-metric deltas. Every known metric carries a comparison rule:
//     exact for fully simulated quantities (wire protocol, CRCs, fault
//     counters), tight relative tolerance for deterministic simulated
//     times, loose tolerance for measured codec timings (robust to machine
//     noise, still fails on order-of-magnitude slowdowns). Metrics present
//     in the baseline but missing from the current report fail the diff,
//     and so does a current metric with a non-note rule that the baseline
//     lacks; unknown new metrics are notes. bench_report --ci turns the
//     verdict into a CI exit code.
#pragma once

#include <string>
#include <vector>

#include "sim/metrics.h"

namespace grace::sim {

struct HealthFlag {
  std::string name;       // stable detector id ("retry_storm", ...)
  std::string detail;     // human-readable explanation
  double value = 0.0;     // observed value that tripped the detector
  double threshold = 0.0; // the threshold it crossed
};

// One row of the scoreboard. Values are doubles even for counters so the
// diff layer has a single comparison path.
struct ReportMetric {
  std::string name;
  double value = 0.0;
};

struct RunReport {
  std::string model;
  std::string compressor;
  std::string topology;
  std::string quality_metric;
  bool overlap_enabled = false;
  std::vector<ReportMetric> metrics;  // emission order == JSON order
  std::vector<HealthFlag> flags;
  CriticalPathSummary critical_path;  // copied from the RunResult
};

// Builds the report from the result alone. The detector thresholds are
// fixed (rationale in OBSERVABILITY.md §4).
RunReport build_run_report(const RunResult& result);

// Deterministic JSON object ({"schema":"grace.run_report.v1",...}); equal
// reports serialize byte-identically. A NaN or infinite number is written
// as null.
std::string run_report_json(const RunReport& report);
// Human-readable multi-line summary (attribution ledger, what-ifs, flags).
std::string run_report_text(const RunReport& report);

// --- Regression diff ------------------------------------------------------

struct MetricDelta {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double delta = 0.0;      // current - baseline
  bool failed = false;     // this metric broke its rule
  std::string rule;        // "exact" / "rel<=..." / "abs<=..." / "note"
};

struct ReportDiff {
  bool pass = true;
  std::vector<MetricDelta> deltas;     // every baseline/current metric
  std::vector<std::string> notes;      // unknown metrics, flag changes
  std::vector<std::string> failures;   // human-readable failure lines
};

// Compares two run_report_json documents. Verdict rules: a document off
// the JSON grammar (a `nan` metric included) or a baseline metric missing
// from `current_json` fails, as does a current metric with a non-note rule
// missing from `baseline_json`; a metric with a non-note rule that is null
// on either side fails, naming it; each known metric applies its
// comparison rule; flag-set changes and unknown metrics become notes.
ReportDiff diff_reports(const std::string& baseline_json,
                        const std::string& current_json);
std::string report_diff_text(const ReportDiff& diff);

}  // namespace grace::sim
