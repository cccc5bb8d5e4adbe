#include "sim/report.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "control/controller.h"
#include "util/crc32.h"
#include "util/json.h"

namespace grace::sim {
namespace {

constexpr std::string_view kSchema = "grace.run_report.v1";
// Report rows of the FaultCounters fields: "fault.<FaultField::name>".
constexpr std::string_view kFaultPrefix = "fault.";

// Health-detector thresholds (rationale in OBSERVABILITY.md §4).
// "stall_share": fault stalls claim more than this share of the mean
// iteration.
constexpr double kStallShare = 0.05;
// "straggler_outlier": one rank's accumulated stall exceeds this multiple
// of the mean over the other ranks (RunResult::rank_stall_s).
constexpr double kStragglerRankRatio = 4.0;
// "retry_storm": simulated retries exceed this fraction of the messages
// sent.
constexpr double kRetryStormRatio = 0.10;
// "fidelity_collapse": any probed tensor's mean cosine similarity or sign
// agreement falls below these floors.
constexpr double kMinCosine = 0.70;
constexpr double kMinSignAgreement = 0.60;
// "overlap_regression": an overlap-enabled run recovers less than this
// fraction of the additive iteration time.
constexpr double kMinOverlapFraction = 0.05;

void add_metric(RunReport& rep, std::string name, double value) {
  rep.metrics.push_back(ReportMetric{std::move(name), value});
}

// --- Diff rules -----------------------------------------------------------

enum class RuleKind {
  Exact,  // simulated integers / CRCs: any change fails
  Rel,    // |delta| > tol * max(|baseline|, 1e-12) fails
  Abs,    // |delta| > tol fails
  Note,   // informational only, never fails
};

struct Rule {
  std::string_view name;
  RuleKind kind;
  double tol;
};

// Tolerance tiers: Exact for fully simulated/deterministic quantities,
// Rel 1e-6 for simulated seconds (deterministic arithmetic, but serialized
// through decimal), Rel 1.0 for measured codec timings — generous enough
// for machine-to-machine noise, still two orders of magnitude tighter than
// an injected 1000x compression_time_scale slowdown. The fault.* rows take
// their tier from faults::kFaultFields (counts Exact, seconds Rel 1e-6).
// Metrics not listed here diff as notes. A metric with a non-note rule
// must be in the baseline: one the current report adds fails the diff.
constexpr Rule kRules[] = {
    {"parameters_crc32", RuleKind::Exact, 0.0},
    {"replicas_in_sync", RuleKind::Exact, 0.0},
    {"model_parameters", RuleKind::Exact, 0.0},
    {"gradient_tensors", RuleKind::Exact, 0.0},
    {"buckets_per_iter", RuleKind::Exact, 0.0},
    {"epochs", RuleKind::Exact, 0.0},
    {"samples_per_epoch", RuleKind::Exact, 0.0},
    {"comm_messages", RuleKind::Exact, 0.0},
    {"comm_payload_bytes", RuleKind::Exact, 0.0},
    {"critical_path.iterations", RuleKind::Exact, 0.0},
    {"control.boundaries", RuleKind::Exact, 0.0},
    {"control.switches", RuleKind::Exact, 0.0},
    {"control.decisions_crc32", RuleKind::Exact, 0.0},
    {"wire_bytes_per_iter", RuleKind::Rel, 1e-6},
    {"compute_seconds", RuleKind::Rel, 1e-6},
    {"comm_seconds", RuleKind::Rel, 1e-6},
    {"optimizer_seconds", RuleKind::Rel, 1e-6},
    {"stall_seconds", RuleKind::Rel, 1e-6},
    {"final_quality", RuleKind::Abs, 1e-6},
    {"best_quality", RuleKind::Abs, 1e-6},
    {"fidelity.min_cosine", RuleKind::Abs, 1e-6},
    {"fidelity.min_sign_agreement", RuleKind::Abs, 1e-6},
    {"iteration_seconds", RuleKind::Rel, 1.0},
    {"compress_seconds", RuleKind::Rel, 1.0},
    {"total_sim_seconds", RuleKind::Rel, 1.0},
    {"throughput", RuleKind::Rel, 1.0},
    {"overlap_fraction", RuleKind::Abs, 0.5},
    {"overlap_saved_seconds", RuleKind::Note, 0.0},
    {"critical_path.compute_share", RuleKind::Abs, 0.5},
    {"critical_path.codec_share", RuleKind::Abs, 0.5},
    {"critical_path.link_share", RuleKind::Abs, 0.5},
    {"critical_path.optimizer_share", RuleKind::Abs, 0.5},
    {"critical_path.stall_share", RuleKind::Abs, 0.5},
    {"health.flags", RuleKind::Note, 0.0},
};

const Rule* find_rule(std::string_view name) {
  for (const Rule& r : kRules) {
    if (r.name == name) return &r;
  }
  if (name.starts_with(kFaultPrefix)) {
    static constexpr Rule kCount{"fault.*", RuleKind::Exact, 0.0};
    static constexpr Rule kSeconds{"fault.*", RuleKind::Rel, 1e-6};
    for (const faults::FaultField& f : faults::kFaultFields) {
      if (f.name == name.substr(kFaultPrefix.size())) {
        return f.count != nullptr ? &kCount : &kSeconds;
      }
    }
  }
  // What-if speedups divide two measured means; informational only.
  if (name.substr(0, 7) == "whatif.") {
    static constexpr Rule kWhatIf{"whatif.*", RuleKind::Note, 0.0};
    return &kWhatIf;
  }
  return nullptr;
}

std::string rule_label(const Rule* rule) {
  if (rule == nullptr) return "note";
  std::ostringstream os;
  os.precision(6);
  switch (rule->kind) {
    case RuleKind::Exact: return "exact";
    case RuleKind::Rel: os << "rel<=" << rule->tol; return os.str();
    case RuleKind::Abs: os << "abs<=" << rule->tol; return os.str();
    case RuleKind::Note: return "note";
  }
  return "note";
}

// The metric rows and flag names of a run_report_json document; a document
// of another shape or off the grammar throws std::invalid_argument.
struct Extracted {
  std::vector<ReportMetric> metrics;
  std::vector<std::string> flag_names;
};

Extracted extract_rows(const std::string& json) {
  const util::json::Value doc = util::json::parse(json);
  Extracted out;
  for (const auto& [name, value] : doc.at("metrics").object()) {
    // run_report_json writes a NaN or an infinity as null; it reads back
    // as NaN, which fails any gated rule.
    out.metrics.push_back(ReportMetric{
        name, value.text() == "null" ? std::numeric_limits<double>::quiet_NaN()
                                     : value.number()});
  }
  for (const util::json::Value& flag : doc.at("flags").array()) {
    out.flag_names.push_back(flag.at("name").string());
  }
  return out;
}

}  // namespace

RunReport build_run_report(const RunResult& result) {
  RunReport rep;
  rep.model = result.model;
  rep.compressor = result.compressor;
  rep.topology = result.topology;
  rep.quality_metric = result.quality_metric;
  rep.overlap_enabled = result.overlap_enabled;
  rep.critical_path = result.critical_path;

  // --- Scoreboard (order here is the serialization order) ---
  add_metric(rep, "parameters_crc32", static_cast<double>(result.parameters_crc32));
  add_metric(rep, "replicas_in_sync", result.replicas_in_sync ? 1.0 : 0.0);
  add_metric(rep, "model_parameters", static_cast<double>(result.model_parameters));
  add_metric(rep, "gradient_tensors", static_cast<double>(result.gradient_tensors));
  add_metric(rep, "buckets_per_iter", static_cast<double>(result.buckets_per_iter));
  add_metric(rep, "epochs", static_cast<double>(result.epochs.size()));
  add_metric(rep, "samples_per_epoch", static_cast<double>(result.samples_per_epoch));
  add_metric(rep, "comm_messages", static_cast<double>(result.comm_messages));
  add_metric(rep, "comm_payload_bytes", static_cast<double>(result.comm_payload_bytes));
  add_metric(rep, "wire_bytes_per_iter", result.wire_bytes_per_iter);
  add_metric(rep, "compute_seconds", result.compute_s);
  add_metric(rep, "comm_seconds", result.phases.comm_s);
  add_metric(rep, "optimizer_seconds", result.phases.optimizer_s);
  add_metric(rep, "stall_seconds", result.phases.stall_s);
  add_metric(rep, "final_quality", result.final_quality);
  add_metric(rep, "best_quality", result.best_quality);
  add_metric(rep, "iteration_seconds", result.iteration_s);
  add_metric(rep, "compress_seconds", result.compress_s);
  add_metric(rep, "total_sim_seconds", result.total_sim_seconds);
  add_metric(rep, "throughput", result.throughput);
  add_metric(rep, "overlap_fraction", result.overlap_fraction);
  add_metric(rep, "overlap_saved_seconds", result.overlap_saved_s);
  for (const faults::FaultField& f : faults::kFaultFields) {
    add_metric(rep, std::string(kFaultPrefix) + std::string(f.name),
               f.value(result.faults));
  }

  // Fidelity floors over the probed tensors (deterministic: the simulated
  // training arithmetic does not depend on measured codec time).
  double min_cosine = std::numeric_limits<double>::infinity();
  double min_sign = std::numeric_limits<double>::infinity();
  bool probed = false;
  for (const TensorFidelitySummary& f : result.fidelity) {
    if (f.samples == 0) continue;
    probed = true;
    min_cosine = std::min(min_cosine, f.cosine_similarity);
    min_sign = std::min(min_sign, f.sign_agreement);
  }
  if (probed) {
    add_metric(rep, "fidelity.min_cosine", min_cosine);
    add_metric(rep, "fidelity.min_sign_agreement", min_sign);
  }

  // Adaptive-controller decisions (src/control): counts plus a CRC over
  // the deterministic decision-log JSON, so a diff catches ANY change in
  // the decision sequence — which arm, which signal, which boundary — not
  // just in how often it switched. All three diff exact.
  if (result.control.enabled) {
    add_metric(rep, "control.boundaries",
               static_cast<double>(result.control.boundaries));
    add_metric(rep, "control.switches",
               static_cast<double>(result.control.switches));
    const std::string decisions =
        control::control_decisions_json(result.control.decisions);
    add_metric(rep, "control.decisions_crc32",
               static_cast<double>(util::crc32(std::as_bytes(
                   std::span(decisions.data(), decisions.size())))));
  }

  if (result.critical_path.collected) {
    const IterationAttribution& m = result.critical_path.mean;
    const double total = m.iteration_s > 0.0 ? m.iteration_s : 1.0;
    add_metric(rep, "critical_path.iterations",
               static_cast<double>(result.critical_path.iterations));
    add_metric(rep, "critical_path.compute_share", m.compute_s / total);
    add_metric(rep, "critical_path.codec_share", m.codec_s / total);
    add_metric(rep, "critical_path.link_share", m.link_s / total);
    add_metric(rep, "critical_path.optimizer_share", m.optimizer_s / total);
    add_metric(rep, "critical_path.stall_share", m.stall_s / total);
    for (const WhatIfResult& w : result.critical_path.what_ifs) {
      add_metric(rep, "whatif." + w.name + ".speedup", w.speedup);
    }
  }

  // --- Health detectors (deterministic signals only) ---
  auto flag = [&](std::string name, std::string detail, double value,
                  double threshold) {
    rep.flags.push_back(
        HealthFlag{std::move(name), std::move(detail), value, threshold});
  };

  // Stall share of the mean iteration.
  const double stall_share =
      result.iteration_s > 0.0 ? result.phases.stall_s / result.iteration_s
                               : 0.0;
  if (stall_share > kStallShare) {
    std::ostringstream d;
    d.precision(3);
    d << "fault stalls claim " << stall_share * 100.0
      << "% of the mean iteration";
    flag("stall_share", d.str(), stall_share, kStallShare);
  }

  // Straggler outlier: one rank's accumulated simulated stall dwarfs the
  // rest of the fleet.
  const std::vector<double>& rank_stall = result.rank_stall_s;
  if (rank_stall.size() > 1) {
    size_t worst = 0;
    double total = 0.0;
    for (size_t r = 0; r < rank_stall.size(); ++r) {
      total += rank_stall[r];
      if (rank_stall[r] > rank_stall[worst]) worst = r;
    }
    const double others_mean =
        (total - rank_stall[worst]) / static_cast<double>(rank_stall.size() - 1);
    if (rank_stall[worst] > 0.0 &&
        (others_mean <= 0.0 ||
         rank_stall[worst] > kStragglerRankRatio * others_mean)) {
      const double ratio = others_mean > 0.0
                               ? rank_stall[worst] / others_mean
                               : std::numeric_limits<double>::infinity();
      std::ostringstream d;
      d.precision(3);
      d << "rank " << worst << " stalled " << rank_stall[worst]
        << "s vs fleet mean " << others_mean << "s";
      flag("straggler_outlier", d.str(),
           std::isinf(ratio) ? rank_stall[worst] : ratio,
           kStragglerRankRatio);
    }
  }

  // Retry storm: simulated re-deliveries vs messages actually sent.
  if (result.comm_messages > 0 && result.faults.retries > 0) {
    const double retry_ratio =
        static_cast<double>(result.faults.retries) /
        static_cast<double>(result.comm_messages);
    if (retry_ratio > kRetryStormRatio) {
      std::ostringstream d;
      d.precision(3);
      d << result.faults.retries << " retries over " << result.comm_messages
        << " messages (" << retry_ratio * 100.0 << "%)";
      flag("retry_storm", d.str(), retry_ratio, kRetryStormRatio);
    }
  }

  // Fidelity collapse: a probed tensor's reconstruction dropped below the
  // floors.
  if (probed && (min_cosine < kMinCosine || min_sign < kMinSignAgreement)) {
    std::ostringstream d;
    d.precision(3);
    d << "min cosine " << min_cosine << " (floor " << kMinCosine
      << "), min sign agreement " << min_sign << " (floor "
      << kMinSignAgreement << ")";
    flag("fidelity_collapse", d.str(),
         std::min(min_cosine / kMinCosine, min_sign / kMinSignAgreement),
         1.0);
  }

  // Overlap regression: overlap was enabled, there was exchange time worth
  // hiding, and almost none of it was hidden.
  if (result.overlap_enabled && result.iteration_s > 0.0) {
    const double exchange_share =
        (result.compress_s + result.phases.comm_s) / result.iteration_s;
    if (exchange_share > kMinOverlapFraction &&
        result.overlap_fraction < kMinOverlapFraction) {
      std::ostringstream d;
      d.precision(3);
      d << "overlap recovered only " << result.overlap_fraction * 100.0
        << "% of the additive iteration despite "
        << exchange_share * 100.0 << "% exchange share";
      flag("overlap_regression", d.str(), result.overlap_fraction,
           kMinOverlapFraction);
    }
  }

  add_metric(rep, "health.flags", static_cast<double>(rep.flags.size()));
  return rep;
}

std::string run_report_json(const RunReport& report) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"schema\":";
  util::json::append_escaped(os, kSchema);
  os << ",\"model\":";
  util::json::append_escaped(os, report.model);
  os << ",\"compressor\":";
  util::json::append_escaped(os, report.compressor);
  os << ",\"topology\":";
  util::json::append_escaped(os, report.topology);
  os << ",\"quality_metric\":";
  util::json::append_escaped(os, report.quality_metric);
  os << ",\"overlap\":" << (report.overlap_enabled ? "true" : "false");
  os << ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    if (i) os << ',';
    util::json::append_escaped(os, report.metrics[i].name);
    os << ':';
    util::json::append_number(os, report.metrics[i].value);
  }
  os << "},\"flags\":[";
  for (size_t i = 0; i < report.flags.size(); ++i) {
    const HealthFlag& f = report.flags[i];
    if (i) os << ',';
    os << "{\"name\":";
    util::json::append_escaped(os, f.name);
    os << ",\"value\":";
    util::json::append_number(os, f.value);
    os << ",\"threshold\":";
    util::json::append_number(os, f.threshold);
    os << ",\"detail\":";
    util::json::append_escaped(os, f.detail);
    os << '}';
  }
  os << "],\"critical_path\":" << critical_path_json(report.critical_path);
  os << '}';
  return os.str();
}

std::string run_report_text(const RunReport& report) {
  std::ostringstream os;
  os.precision(4);
  os << "== run report: " << report.model << " | " << report.compressor
     << " | " << report.topology
     << (report.overlap_enabled ? " | overlap" : " | additive") << " ==\n";
  auto metric = [&](std::string_view name) -> const ReportMetric* {
    for (const ReportMetric& m : report.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  if (const ReportMetric* m = metric("iteration_seconds")) {
    os << "iteration: " << m->value * 1e3 << " ms";
    if (const ReportMetric* t = metric("throughput")) {
      os << "  (" << t->value << " samples/s)";
    }
    os << '\n';
  }
  if (report.critical_path.collected) {
    const IterationAttribution& m = report.critical_path.mean;
    const double total = m.iteration_s > 0.0 ? m.iteration_s : 1.0;
    os << "attribution: compute " << m.compute_s / total * 100.0
       << "% | codec " << m.codec_s / total * 100.0 << "% | link "
       << m.link_s / total * 100.0 << "% | optimizer "
       << m.optimizer_s / total * 100.0 << "% | stall "
       << m.stall_s / total * 100.0
       << "%  [binding: " << resource_name(m.binding) << "]\n";
    os << "what-if:";
    for (size_t i = 0; i < report.critical_path.what_ifs.size(); ++i) {
      const WhatIfResult& w = report.critical_path.what_ifs[i];
      os << (i ? " | " : " ") << w.name << ' ' << w.speedup << 'x';
    }
    os << '\n';
  }
  if (const ReportMetric* m = metric("final_quality")) {
    os << "quality: " << m->value << " (" << report.quality_metric << ")\n";
  }
  if (report.flags.empty()) {
    os << "health: OK\n";
  } else {
    os << "health: " << report.flags.size() << " flag"
       << (report.flags.size() == 1 ? "" : "s") << '\n';
    for (const HealthFlag& f : report.flags) {
      os << "  [" << f.name << "] " << f.detail << '\n';
    }
  }
  return os.str();
}

ReportDiff diff_reports(const std::string& baseline_json,
                        const std::string& current_json) {
  ReportDiff diff;
  Extracted base;
  Extracted cur;
  const char* reading = "baseline";
  try {
    base = extract_rows(baseline_json);
    reading = "current";
    cur = extract_rows(current_json);
  } catch (const std::invalid_argument& e) {
    diff.pass = false;
    diff.failures.push_back(std::string(reading) +
                            " report is not parseable: " + e.what());
    return diff;
  }
  if (base.metrics.empty()) {
    diff.pass = false;
    diff.failures.push_back("baseline report carries no metrics");
    return diff;
  }

  auto find_current = [&](const std::string& name) -> const ReportMetric* {
    for (const ReportMetric& m : cur.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };

  for (const ReportMetric& b : base.metrics) {
    const ReportMetric* c = find_current(b.name);
    if (c == nullptr) {
      diff.pass = false;
      diff.failures.push_back("metric missing from current report: " + b.name);
      continue;
    }
    const Rule* rule = find_rule(b.name);
    MetricDelta d;
    d.name = b.name;
    d.baseline = b.value;
    d.current = c->value;
    d.delta = c->value - b.value;
    d.rule = rule_label(rule);
    if (rule != nullptr && rule->kind != RuleKind::Note &&
        (std::isnan(b.value) || std::isnan(c->value))) {
      // Every comparison with NaN is false, so no rule below would fail.
      diff.pass = false;
      d.failed = true;
      diff.failures.push_back(d.name + ": null (not a finite number) in the " +
                              (std::isnan(b.value) ? "baseline" : "current") +
                              " report breaks rule " + d.rule);
      diff.deltas.push_back(std::move(d));
      continue;
    }
    if (rule != nullptr) {
      switch (rule->kind) {
        case RuleKind::Exact:
          d.failed = b.value != c->value;
          break;
        case RuleKind::Rel:
          d.failed =
              std::abs(d.delta) > rule->tol * std::max(std::abs(b.value), 1e-12);
          break;
        case RuleKind::Abs:
          d.failed = std::abs(d.delta) > rule->tol;
          break;
        case RuleKind::Note:
          d.failed = false;
          break;
      }
    }
    if (d.failed) {
      diff.pass = false;
      std::ostringstream f;
      f.precision(6);
      f << d.name << ": baseline " << d.baseline << " -> current "
        << d.current << " breaks rule " << d.rule;
      diff.failures.push_back(f.str());
    }
    diff.deltas.push_back(std::move(d));
  }
  // A gated metric the baseline lacks fails: otherwise a row nobody
  // recorded would pass every run, whatever its value.
  for (const ReportMetric& c : cur.metrics) {
    bool known = false;
    for (const ReportMetric& b : base.metrics) {
      if (b.name == c.name) { known = true; break; }
    }
    if (known) continue;
    const Rule* rule = find_rule(c.name);
    if (rule != nullptr && rule->kind != RuleKind::Note) {
      diff.pass = false;
      diff.failures.push_back("metric missing from baseline: " + c.name +
                              " (rule " + rule_label(rule) + ")");
    } else {
      diff.notes.push_back("new metric (not in baseline): " + c.name);
    }
  }

  // Flag-set changes are advisory: the detectors that matter numerically
  // already fail through their metrics.
  for (const std::string& f : cur.flag_names) {
    if (std::find(base.flag_names.begin(), base.flag_names.end(), f) ==
        base.flag_names.end()) {
      diff.notes.push_back("health flag raised: " + f);
    }
  }
  for (const std::string& f : base.flag_names) {
    if (std::find(cur.flag_names.begin(), cur.flag_names.end(), f) ==
        cur.flag_names.end()) {
      diff.notes.push_back("health flag cleared: " + f);
    }
  }
  return diff;
}

std::string report_diff_text(const ReportDiff& diff) {
  std::ostringstream os;
  os.precision(6);
  os << "== report diff: " << (diff.pass ? "PASS" : "FAIL") << " ==\n";
  for (const std::string& f : diff.failures) os << "  FAIL " << f << '\n';
  for (const MetricDelta& d : diff.deltas) {
    if (d.failed) continue;  // already in failures
    os << "  ok   " << d.name << ": " << d.baseline << " -> " << d.current
       << " (delta " << d.delta << ", rule " << d.rule << ")\n";
  }
  for (const std::string& n : diff.notes) os << "  note " << n << '\n';
  return os.str();
}

}  // namespace grace::sim
