// Shared helpers for the benchmark binaries: the compressor roster from the
// paper's evaluation, the §V-A per-compressor overrides, run_cell (one cell
// of a paper-figure matrix), gate_args (the regression gates' --ci parser),
// write_bench_json (every BENCH_*.json), and the run-report gate.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "faults/fault_plan.h"
#include "sim/report.h"
#include "sim/tasks.h"
#include "util/json.h"

namespace grace::bench {

// The compressor configurations evaluated in §V (paper's parameter choices:
// 0.01 ratios, QSGD(64), SketchML(64), PowerSGD rank 4).
inline std::vector<std::string> evaluation_roster() {
  return {"none",          "eightbit",      "onebit",       "signsgd",
          "signum",        "qsgd(64)",      "natural",      "terngrad",
          "efsignsgd",     "inceptionn",    "randomk(0.01)", "topk(0.01)",
          "thresholdv(0.01)", "dgc(0.01)",  "adaptive(0.01)", "sketchml(64)",
          "powersgd(4)"};
}

// §V-A: "PowerSGD, Random-k, DGC, SignSGD and SIGNUM use vanilla SGD as it
// achieves better quality" on image classification; sign-valued updates
// also need a smaller step. EFsignSGD sets gamma = initial lr.
inline void apply_paper_overrides(const std::string& spec,
                                  sim::TrainConfig& cfg,
                                  bool classification_task) {
  const std::string name = core::parse_spec(spec).name;
  if (classification_task &&
      (name == "powersgd" || name == "randomk" || name == "dgc" ||
       name == "signsgd" || name == "signum")) {
    cfg.optimizer.type = optim::OptimizerType::Sgd;
  }
  if (name == "signsgd" || name == "signum") {
    // Updates are ±1 per coordinate; rescale the step.
    cfg.optimizer.lr = std::min(cfg.optimizer.lr, 0.005);
  }
  if (name == "efsignsgd") {
    // Karimireddy et al.: p = gamma*g + e, x -= (||p||_1/d) sign(p); the
    // step size lives in gamma and the decompressed delta applies
    // directly. For SGD-family tasks run plain SGD at lr 1; for adaptive
    // optimizers (Adam/RMSProp) keep the task optimizer — it renormalizes
    // magnitudes itself, so only gamma = lr carries over (the paper's
    // §V-A setting).
    cfg.grace.ef_beta = 1.0f;
    cfg.grace.ef_gamma = static_cast<float>(cfg.optimizer.lr);
    if (cfg.optimizer.type == optim::OptimizerType::Sgd ||
        cfg.optimizer.type == optim::OptimizerType::Momentum) {
      cfg.optimizer.type = optim::OptimizerType::Sgd;
      cfg.optimizer.lr = 1.0;
    }
  }
}

// GRACE_SCALE=<f> (default 1.0): the size factor every bench scales its
// tasks or problem sizes by, so any bench shrinks for a smoke run.
inline double scale_from_env() {
  const char* s = std::getenv("GRACE_SCALE");
  return s ? std::atof(s) : 1.0;
}

// One cell of a paper-figure matrix: a full training run of `b` with the
// compressor `entry`, from sim::default_config. An entry ending in "+noef"
// also forces error feedback off (the Fig. 6d TopK inset). `tweak` sets the
// cell's axis (network, topology, fusion, overlap, EF); the §V-A overrides
// apply last.
inline sim::RunResult run_cell(
    const sim::Benchmark& b, const std::string& entry,
    const std::function<void(sim::TrainConfig&)>& tweak = {}) {
  constexpr std::string_view kNoEf = "+noef";
  sim::TrainConfig cfg = sim::default_config(b);
  std::string spec = entry;
  if (spec.ends_with(kNoEf)) {
    spec.resize(spec.size() - kNoEf.size());
    cfg.grace.error_feedback = false;
  }
  cfg.grace.compressor_spec = spec;
  if (tweak) tweak(cfg);
  apply_paper_overrides(spec, cfg, b.quality_metric == "top1-accuracy");
  return sim::train(b.factory, cfg);
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// Whole file as a string; empty when it cannot be read.
inline std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) return {};
  std::string text;
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

// The argument parser of the regression gates. `--ci` selects the CI run;
// with `with_baseline` it takes the committed baseline path
// (`--ci <baseline.json>`). Any other argument, or a --ci missing its path,
// exits 2 with a usage message.
struct GateArgs {
  bool ci = false;
  const char* baseline = nullptr;  // the --ci path when with_baseline
};

inline GateArgs gate_args(int argc, char** argv, const char* prog,
                          bool with_baseline) {
  GateArgs args;
  for (int i = 1; i < argc; ++i) {
    const bool ci = std::strcmp(argv[i], "--ci") == 0;
    if (ci && !with_baseline) {
      args.ci = true;
    } else if (ci && i + 1 < argc) {
      args.ci = true;
      args.baseline = argv[++i];
    } else {
      if (ci) {
        std::fprintf(stderr, "--ci needs a baseline path\n");
      } else {
        std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      }
      std::fprintf(stderr, "usage: %s [--ci%s]\n", prog,
                   with_baseline ? " <baseline.json>" : "");
      std::exit(2);
    }
  }
  return args;
}

// printf-style append: the builder behind every BENCH_*.json document.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out,
                                                  const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list sized;
  va_copy(sized, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sized);
  va_end(sized);
  const size_t at = out.size();
  out.resize(at + static_cast<size_t>(n) + 1);
  std::vsnprintf(out.data() + at, static_cast<size_t>(n) + 1, fmt, args);
  out.resize(at + static_cast<size_t>(n));
  va_end(args);
}

// Writes `text` to BENCH_<name>.json in the working directory. Returns
// false, after a diagnostic, when the file cannot be opened or written.
inline bool write_bench_json(const std::string& name, const std::string& text) {
  const std::string file = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", file.c_str());
    return false;
  }
  const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", file.c_str());
    return false;
  }
  std::printf("wrote %s\n", file.c_str());
  return true;
}

// The run-report regression gate (docs/OBSERVABILITY.md §4) of
// bench_<name>: writes `rows` — (label, run_report_json) cells — to
// BENCH_<name>.json, one cell per line. With a `baseline_path`, it then
// diffs every cell against the baseline cell of the same label under the
// sim::diff_reports verdict rules. Returns the process exit code: 1 when
// a file cannot be written or read, the baseline is not JSON or repeats a
// label, a cell is missing from either side, or any cell fails; else 0.
inline int report_gate(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& rows,
    const char* baseline_path) {
  const std::string prog = "bench_" + name;
  std::string json;
  appendf(json, "{\"benchmark\":\"%s\",\"cells\":[\n", name.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    appendf(json, "{\"label\":\"%s\",\"report\":%s}%s\n",
            rows[i].first.c_str(), rows[i].second.c_str(),
            i + 1 < rows.size() ? "," : "");
  }
  json += "]}\n";
  if (!write_bench_json(name, json)) return 1;

  if (baseline_path == nullptr) return 0;

  // --ci: diff every cell against the committed baseline.
  const std::string baseline = read_file(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "cannot read baseline '%s'\n", baseline_path);
    return 1;
  }
  std::map<std::string, std::string> cells;  // label -> report text
  try {
    const util::json::Value doc = util::json::parse(baseline);
    const util::json::Value& list = doc.at("cells");
    for (const util::json::Value& cell : list.array()) {
      const std::string& label = cell.at("label").string();
      // A cell the matrix no longer produces would silently stop being
      // gated, and of a repeated label only one cell would be.
      if (std::none_of(rows.begin(), rows.end(),
                       [&](const auto& row) { return row.first == label; })) {
        cell.fail("cell '" + label + "' is not in the matrix");
      }
      if (!cells.emplace(label, cell.at("report").text()).second) {
        cell.fail("repeated label '" + label + "'");
      }
    }
    for (const auto& [label, current] : rows) {
      if (cells.count(label) == 0) list.fail("no cell '" + label + "'");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "FAIL baseline '%s': %s\n", baseline_path,
                 e.what());
    return 1;
  }
  int failures = 0;
  for (const auto& [label, current] : rows) {
    const sim::ReportDiff diff = sim::diff_reports(cells.at(label), current);
    std::printf("--- diff %s ---\n%s", label.c_str(),
                sim::report_diff_text(diff).c_str());
    if (!diff.pass) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%s --ci: %d cell(s) FAILED\n", prog.c_str(),
                 failures);
    return 1;
  }
  std::printf("%s --ci: all %zu cells PASS\n", prog.c_str(), rows.size());
  return 0;
}

// `--faults=<plan.json>` — the shared fault-plan flag of the benchmark
// binaries (docs/RESILIENCE.md). Returns the path when present, nullptr
// otherwise; any other argument aborts with a usage message.
inline const char* fault_plan_arg(int argc, char** argv, const char* prog) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--faults=", 0) == 0 && arg.size() > 9) {
      path = argv[i] + 9;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\nusage: %s [--faults=<plan.json>]\n",
                   argv[i], prog);
      std::exit(2);
    }
  }
  return path;
}

// Reads and parses a fault-plan JSON file; aborts with a diagnostic on I/O
// or schema errors (a typoed plan must not silently run healthy).
inline faults::FaultSpec load_fault_spec(const char* path) {
  const std::string text = read_file(path);
  if (text.empty()) {
    std::fprintf(stderr, "cannot read fault plan '%s'\n", path);
    std::exit(2);
  }
  try {
    return faults::parse_fault_spec_json(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid fault plan '%s': %s\n", path, e.what());
    std::exit(2);
  }
}

}  // namespace grace::bench
