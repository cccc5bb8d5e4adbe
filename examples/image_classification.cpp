// Image classification with compressed communication — the paper's
// motivating scenario (Fig. 1). Trains the VGG-like model on 8 workers,
// compares no compression against a sparsifier and a quantizer, and prints
// both accuracy-vs-epoch and accuracy-vs-time views.
//
// Usage: example_image_classification [compressor-spec ...]
//   e.g. example_image_classification none topk(0.01) qsgd(64)
#include <cstdio>
#include <string>
#include <vector>

#include "sim/tasks.h"

int main(int argc, char** argv) {
  using namespace grace;
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) specs.emplace_back(argv[i]);
  if (specs.empty()) specs = {"none", "randomk(0.01)", "eightbit"};

  sim::Benchmark bench = sim::make_mlp_classification(/*scale=*/0.5);
  std::printf("Benchmark: %s / %s on %s (%d epochs)\n", bench.task.c_str(),
              bench.model.c_str(), bench.dataset.c_str(), bench.epochs);

  for (const auto& spec : specs) {
    sim::TrainConfig cfg = sim::default_config(bench);
    cfg.grace.compressor_spec = spec;
    sim::RunResult run = sim::train(bench.factory, cfg);
    std::printf("\n=== %s (EF %s) ===\n", spec.c_str(),
                run.error_feedback ? "on" : "off");
    for (const auto& e : run.epochs) {
      std::printf("  epoch %d  t=%6.1fs  loss=%.3f  acc=%.3f\n", e.epoch,
                  e.cum_sim_seconds, e.train_loss, e.quality);
    }
    std::printf("  best acc %.3f | throughput %.0f samples/s | "
                "%.1f KB/iter/worker | breakdown per iter: compute %.2fms, "
                "compression %.2fms, network %.2fms\n",
                run.best_quality, run.throughput,
                run.wire_bytes_per_iter / 1024.0, run.compute_s * 1e3,
                run.compress_s * 1e3, run.phases.comm_s * 1e3);
  }
  return 0;
}
