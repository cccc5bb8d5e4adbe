// Ablation (§V-B of the paper): error feedback on/off for every compressor
// on (a) image classification and (b) recommendation. Reproduces two paper
// findings: EF materially improves sparsifiers, and EF *hurts* several
// quantizers (SignSGD/SIGNUM/QSGD/TernGrad) — plus the recommendation-task
// exception where EF also hurts TopK / 8-bit / Natural.
#include <cstdio>

#include "bench_common.h"

namespace {

void run_panel(const grace::sim::Benchmark& b) {
  using namespace grace;
  std::printf("\n%s - %s\n", b.task.c_str(), b.model.c_str());
  bench::print_rule(78);
  std::printf("%-18s %16s %16s %14s\n", "compressor", "quality (EF off)",
              "quality (EF on)", "EF effect");
  bench::print_rule(78);
  for (const auto& spec : bench::evaluation_roster()) {
    if (spec == "none") continue;
    const std::string base_name = core::parse_spec(spec).name;
    if (base_name == "dgc") continue;  // memory built-in; the flag is a no-op
    double q[2] = {0, 0};
    for (int ef = 0; ef < 2; ++ef) {
      const sim::RunResult run = bench::run_cell(
          b, spec, [ef](sim::TrainConfig& cfg) {
            cfg.grace.error_feedback = ef == 1;
          });
      q[ef] = run.quality_metric == "test-perplexity" ? -run.best_quality
                                                      : run.best_quality;
    }
    const bool lower_better = b.quality_metric == "test-perplexity";
    const double delta = lower_better ? q[0] - q[1] : q[1] - q[0];
    std::printf("%-18s %16.4f %16.4f %+14.4f\n", spec.c_str(), q[0], q[1],
                delta);
  }
}

}  // namespace

int main() {
  using namespace grace;
  const double scale = bench::scale_from_env();
  std::printf("Ablation: error feedback on/off (positive 'EF effect' = EF "
              "helps)\n");
  run_panel(sim::make_cnn_classification(scale));
  run_panel(sim::make_ncf_recommendation(scale));
  return 0;
}
