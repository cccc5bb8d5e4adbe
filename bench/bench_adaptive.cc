// Adaptive-controller benchmark (DESIGN.md §11): time-to-quality of the
// per-bucket ratchet controller against every fixed arm of its own arm
// set, on two models. The controller's win mechanism is per-bucket mixing:
// small tensors whose fidelity collapses under aggressive top-k step to a
// lighter arm (their dense form is nearly free on the wire), while the
// large matrices that dominate wire bytes stay heavily compressed — so the
// run converges almost like the uncompressed baseline while paying almost
// the compressed wire bill.
//
// Time-to-quality (TTQ) = first simulated second at which eval quality
// reaches the uncompressed run's best minus a 10% margin (margin on the
// magnitude, so metrics where "higher is better" means "less negative" —
// lstm-lm's negative log-perplexity — get a sane target too). Every
// quantity compared here is simulated (compression_time_scale = 0, so
// measured codec CPU time is excluded), which makes TTQ and the decision
// log bit-reproducible across machines.
//
// Prints a table and writes BENCH_adaptive.json. `--ci` additionally
// asserts (exit 1 on violation):
//   * the controller's TTQ is never worse than the best fixed arm's, on
//     every model;
//   * two identically-seeded controller runs produce byte-identical
//     decision logs.
//
// GRACE_SCALE=<f> (default 1.0) scales the task datasets for smoke runs;
// the epoch count is fixed so the TTQ resolution does not degrade.
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "control/controller.h"
#include "sim/tasks.h"
#include "sim/trace.h"
#include "util/crc32.h"

namespace {

using namespace grace;

constexpr double kTargetMargin = 0.10;  // of |none best_quality|

// The candidate set, lightest to heaviest (ControlConfig ordering).
const std::vector<std::string> kArms = {"none", "topk(0.1)", "topk(0.01)"};

// Simulated cluster: few workers on a slow link, the regime where the
// compression / fidelity trade-off actually bites (on 10 Gbps these small
// models are compute-bound and every arm ties).
sim::TrainConfig cluster_config(const sim::Benchmark& b, int epochs) {
  sim::TrainConfig cfg = sim::default_config(b);
  cfg.n_workers = 4;
  cfg.net.n_workers = 4;
  cfg.net.bandwidth_gbps = 0.1;
  cfg.epochs = epochs;
  cfg.time.compression_time_scale = 0.0;  // simulated-only: reproducible TTQ
  return cfg;
}

// The controller's ratchet starts every bucket on the heaviest arm and
// steps it lighter while its window cosine breaches the floor; buckets
// under ~2.5 KB dense (biases, small early layers) pin to the uncompressed
// arm: their wire cost is noise, their fidelity is not.
sim::TrainConfig controller_config(const sim::Benchmark& b, int epochs) {
  sim::TrainConfig cfg = cluster_config(b, epochs);
  cfg.grace.compressor_spec = kArms.back();
  cfg.grace.control.arms = kArms;
  return cfg;
}

double time_to_quality(const sim::RunResult& r, double target) {
  for (const sim::EpochRecord& e : r.epochs) {
    if (e.quality >= target) return e.cum_sim_seconds;
  }
  return -1.0;  // never reached
}

std::string ttq_str(double ttq) {
  if (ttq < 0.0) return "never";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", ttq);
  return buf;
}

void append_epochs_json(std::string& out, const sim::RunResult& r) {
  out += "[";
  for (size_t i = 0; i < r.epochs.size(); ++i) {
    if (i) out += ",";
    bench::appendf(out, "{\"quality\":%.6f,\"seconds\":%.6f}",
                   r.epochs[i].quality, r.epochs[i].cum_sim_seconds);
  }
  out += "]";
}

}  // namespace

int main(int argc, char** argv) {
  const bool ci =
      bench::gate_args(argc, argv, "bench_adaptive", /*with_baseline=*/false)
          .ci;
  const double scale = bench::scale_from_env();

  struct ModelCase {
    sim::Benchmark bench;
    int epochs;
  };
  std::vector<ModelCase> cases;
  cases.push_back({sim::make_cnn_classification(0.5 * scale), 8});
  cases.push_back({sim::make_lstm_lm(0.5 * scale), 8});

  std::string json = "{\"benchmark\":\"adaptive\",\"schema\":\"grace.bench_adaptive.v1\"";
  bench::appendf(json, ",\"scale\":%g,\"target_margin\":%.2f,\"models\":[",
                 scale, kTargetMargin);

  bool all_ok = true;
  for (size_t m = 0; m < cases.size(); ++m) {
    const sim::Benchmark& bench = cases[m].bench;
    const int epochs = cases[m].epochs;

    std::printf("=== %s (%s) ===\n", bench.model.c_str(),
                bench.dataset.c_str());
    std::printf("%-22s %10s %10s %12s %10s\n", "configuration", "best_q",
                "epoch_s", "ttq_s", "switches");
    bench::print_rule(70);

    // Fixed arms first; the "none" run defines the quality target.
    std::vector<sim::RunResult> fixed;
    for (const std::string& arm : kArms) {
      sim::TrainConfig cfg = cluster_config(bench, epochs);
      cfg.grace.compressor_spec = arm;
      fixed.push_back(sim::train(bench.factory, cfg));
    }
    const double target =
        fixed[0].best_quality -
        kTargetMargin * std::abs(fixed[0].best_quality);

    // Controller run, twice: the second run only feeds the reproducibility
    // check (byte-identical decision logs under the same seed).
    sim::TrainConfig ctl_cfg = controller_config(bench, epochs);
    sim::RunResult ctl = sim::train(bench.factory, ctl_cfg);
    sim::RunResult ctl2 = sim::train(bench.factory, ctl_cfg);
    const std::string decisions =
        control::control_decisions_json(ctl.control.decisions);
    const std::string decisions2 =
        control::control_decisions_json(ctl2.control.decisions);
    const bool reproducible = decisions == decisions2;
    const uint32_t decisions_crc = util::crc32(
        std::as_bytes(std::span(decisions.data(), decisions.size())));

    const double ctl_ttq = time_to_quality(ctl, target);
    double best_fixed_ttq = -1.0;
    if (m) json += ",";
    bench::appendf(json,
                   "{\"model\":\"%s\",\"epochs\":%d,\"target_quality\":%.6f,"
                   "\"arms\":[",
                   bench.model.c_str(), epochs, target);
    for (size_t a = 0; a < kArms.size(); ++a) {
      const sim::RunResult& r = fixed[a];
      const double ttq = time_to_quality(r, target);
      if (ttq >= 0.0 && (best_fixed_ttq < 0.0 || ttq < best_fixed_ttq)) {
        best_fixed_ttq = ttq;
      }
      std::printf("%-22s %10.4f %10.2f %12s %10s\n", kArms[a].c_str(),
                  r.best_quality, r.total_sim_seconds / epochs,
                  ttq_str(ttq).c_str(), "-");
      if (a) json += ",";
      bench::appendf(json,
                     "{\"spec\":\"%s\",\"best_quality\":%.6f,"
                     "\"total_seconds\":%.6f,\"ttq_seconds\":%.6f,\"epochs\":",
                     kArms[a].c_str(), r.best_quality, r.total_sim_seconds,
                     ttq);
      append_epochs_json(json, r);
      json += "}";
    }
    std::printf("%-22s %10.4f %10.2f %12s %10d\n", "controller(hysteresis)",
                ctl.best_quality, ctl.total_sim_seconds / epochs,
                ttq_str(ctl_ttq).c_str(), ctl.control.switches);
    std::printf("  decision log: %d boundaries, %d switches, crc32=%u, "
                "reproducible=%s\n",
                ctl.control.boundaries, ctl.control.switches, decisions_crc,
                reproducible ? "yes" : "NO");

    bench::appendf(json,
                   "],\"controller\":{"
                   "\"best_quality\":%.6f,\"total_seconds\":%.6f,"
                   "\"ttq_seconds\":%.6f,\"boundaries\":%d,\"switches\":%d,"
                   "\"decisions_crc32\":%u,\"reproducible\":%s,\"epochs\":",
                   ctl.best_quality, ctl.total_sim_seconds, ctl_ttq,
                   ctl.control.boundaries, ctl.control.switches, decisions_crc,
                   reproducible ? "true" : "false");
    append_epochs_json(json, ctl);
    json += ",\"final_arms\":[";
    for (size_t b = 0; b < ctl.control.final_arms.size(); ++b) {
      if (b) json += ",";
      json += std::to_string(ctl.control.final_arms[b]);
    }
    json += "]}}";

    const bool beats_all =
        ctl_ttq >= 0.0 && (best_fixed_ttq < 0.0 || ctl_ttq <= best_fixed_ttq);
    std::printf("  verdict: controller %s (ttq %s vs best fixed %s)\n\n",
                beats_all ? "holds" : "LOSES", ttq_str(ctl_ttq).c_str(),
                ttq_str(best_fixed_ttq).c_str());
    if (!beats_all || !reproducible) all_ok = false;
  }
  json += "]}\n";

  if (!bench::write_bench_json("adaptive", json)) return 1;

  if (ci && !all_ok) {
    std::fprintf(stderr,
                 "bench_adaptive --ci: controller worse than a fixed arm or "
                 "decision log not reproducible\n");
    return 1;
  }
  return 0;
}
