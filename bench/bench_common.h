// Shared helpers for the benchmark binaries (table formatting, the
// compressor roster from the paper's evaluation, per-compressor optimizer
// overrides from §V-A, and the run-report regression gate).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "faults/fault_plan.h"
#include "sim/report.h"
#include "sim/tasks.h"

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
        cfg.optimizer.type == optim::OptimizerType::Momentum ||
        cfg.optimizer.type == optim::OptimizerType::Nesterov) {
      cfg.optimizer.type = optim::OptimizerType::Sgd;
      cfg.optimizer.lr = 1.0;
    }
  }
}

// One cell of the fusion-bytes ablation: a full training run of `b` with
// the given compressor and bucket cap (TrainConfig::fusion_bytes; 0 =
// per-tensor, SIZE_MAX = all-in-one). `overlap` selects the exchange
// timeline (TimeModel::overlap) versus the additive accounting.
// bench_ablation_bucket sweeps the cap with overlap on;
// bench_ablation_fusion runs the two legacy endpoints with overlap off, so
// both tables come from the same harness and stay directly comparable.
inline sim::RunResult run_bucket_cell(const sim::Benchmark& b,
                                      const std::string& spec,
                                      size_t fusion_bytes, bool overlap) {
  sim::TrainConfig cfg = sim::default_config(b);
  cfg.grace.compressor_spec = spec;
  cfg.fusion_bytes = fusion_bytes;
  cfg.time.overlap = overlap;
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

// `--ci <baseline.json>` — the shared flag of the run-report gates. Returns
// the baseline path when present, nullptr otherwise; any other argument
// aborts with a usage message (exit code 2).
inline const char* ci_baseline_arg(int argc, char** argv, const char* prog) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\n"
                   "usage: %s [--ci <baseline.json>]\n",
                   argv[i], prog);
      std::exit(2);
    }
  }
  return path;
}

// Pulls the line for `label` out of a one-cell-per-line BENCH_*.json;
// empty when absent.
inline std::string baseline_line(const std::string& baseline,
                                 const std::string& label) {
  const std::string key = "\"label\":\"" + label + "\"";
  const size_t at = baseline.find(key);
  if (at == std::string::npos) return {};
  const size_t begin = baseline.rfind('\n', at);
  size_t end = baseline.find('\n', at);
  if (end == std::string::npos) end = baseline.size();
  return baseline.substr(begin == std::string::npos ? 0 : begin + 1,
                         end - (begin == std::string::npos ? 0 : begin + 1));
}

// The run-report regression gate (docs/OBSERVABILITY.md §4) of
// bench_<name>: writes `rows` — (label, run_report_json) cells — to
// BENCH_<name>.json, one self-contained cell per line. With a
// `baseline_path`, it then diffs every cell against the baseline's line of
// the same label under the sim::diff_reports verdict rules. Returns the
// process exit code: 1 when the file cannot be written or read, a cell is
// missing from the baseline, no cell matched, or any cell fails; else 0.
inline int report_gate(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& rows,
    const char* baseline_path) {
  const std::string file = "BENCH_" + name + ".json";
  const std::string prog = "bench_" + name;
  std::FILE* out = std::fopen(file.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", file.c_str());
    return 1;
  }
  std::fprintf(out, "{\"benchmark\":\"%s\",\"cells\":[\n", name.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "{\"label\":\"%s\",\"report\":%s}%s\n",
                 rows[i].first.c_str(), rows[i].second.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu cells)\n", file.c_str(), rows.size());

  if (baseline_path == nullptr) return 0;

  // --ci: diff every cell against the committed baseline.
  const std::string baseline = read_file(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "cannot read baseline '%s'\n", baseline_path);
    return 1;
  }
  int failures = 0;
  int matched = 0;
  for (const auto& [label, current] : rows) {
    const std::string base = baseline_line(baseline, label);
    if (base.empty()) {
      std::fprintf(stderr, "FAIL cell '%s' missing from baseline\n",
                   label.c_str());
      ++failures;
      continue;
    }
    ++matched;
    const sim::ReportDiff diff = sim::diff_reports(base, current);
    std::printf("--- diff %s ---\n%s", label.c_str(),
                sim::report_diff_text(diff).c_str());
    if (!diff.pass) ++failures;
  }
  if (matched == 0) {
    // A renamed matrix must not silently pass an empty comparison.
    std::fprintf(stderr, "FAIL no baseline cells matched the matrix\n");
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%s --ci: %d cell(s) FAILED\n", prog.c_str(),
                 failures);
    return 1;
  }
  std::printf("%s --ci: all %d cells PASS\n", prog.c_str(), matched);
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
  std::FILE* f = std::fopen(path, "rb");
  if (!f) {
    std::fprintf(stderr, "cannot open fault plan '%s'\n", path);
    std::exit(2);
  }
  std::string text;
  char buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  try {
    return faults::parse_fault_spec_json(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid fault plan '%s': %s\n", path, e.what());
    std::exit(2);
  }
}

}  // namespace grace::bench
