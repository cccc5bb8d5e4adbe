// Figure 1: top-1 accuracy for the VGG-like model, baseline vs Randk(0.01)
// vs 8-bit quantization, on 8 workers with 25 Gbps links. Panel (a) plots
// accuracy vs epochs (all methods look equivalent); panel (b) plots accuracy
// vs wall-time, where Randk wins and 8-bit loses to the baseline because of
// its compression overhead.
//
// GRACE_SCALE=<f> (default 1.0) scales the dataset and the horizon (five
// times the task's epochs: 30 at full scale) for smoke runs.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  sim::Benchmark b = sim::make_mlp_classification(bench::scale_from_env());
  b.epochs *= 5;  // heavy sparsifiers need many deliveries per coordinate
  std::printf("Figure 1: VGG-like (mlp-wide) classification, 8 workers, "
              "25 Gbps TCP\n\n");

  struct Series {
    std::string spec;
    sim::RunResult run;
  };
  std::vector<Series> series;
  for (const char* spec : {"none", "randomk(0.01)", "eightbit"}) {
    series.push_back({spec, bench::run_cell(b, spec, [](sim::TrainConfig& cfg) {
                        cfg.net.bandwidth_gbps = 25.0;
                      })});
  }

  std::printf("(a) accuracy vs epochs\n");
  std::printf("%-8s", "epoch");
  for (const auto& s : series) std::printf(" %16s", s.spec.c_str());
  std::printf("\n");
  for (size_t e = 0; e < series[0].run.epochs.size(); e += 3) {
    std::printf("%-8zu", e);
    for (const auto& s : series) std::printf(" %16.4f", s.run.epochs[e].quality);
    std::printf("\n");
  }

  std::printf("\n(b) accuracy vs simulated wall-time\n");
  for (const auto& s : series) {
    std::printf("%-16s:", s.spec.c_str());
    for (const auto& e : s.run.epochs) {
      std::printf(" (%.1fs, %.3f)", e.cum_sim_seconds, e.quality);
    }
    std::printf("\n");
  }

  std::printf("\ntime to reach accuracy 0.75: ");
  for (const auto& s : series) {
    double at = -1.0;
    for (const auto& e : s.run.epochs) {
      if (e.quality >= 0.75) {
        at = e.cum_sim_seconds;
        break;
      }
    }
    if (at >= 0) {
      std::printf("%s %.2fs  ", s.spec.c_str(), at);
    } else {
      std::printf("%s never  ", s.spec.c_str());
    }
  }
  std::printf("\ntime to finish all epochs: ");
  for (const auto& s : series) {
    std::printf("%s %.1fs  ", s.spec.c_str(), s.run.total_sim_seconds);
  }
  std::printf("\n(paper: Randk converges ~2x faster than baseline; 8-bit is "
              "slower than no compression. At this reproduction's scale the "
              "8-bit result reproduces; Randk(0.01) converges but its epoch "
              "penalty is larger than its per-epoch saving — see "
              "EXPERIMENTS.md.)\n");
  return 0;
}
