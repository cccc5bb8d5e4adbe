// Table II: the benchmark suite with baseline (no compression) quality.
// Columns mirror the paper: task, model, dataset, trainable parameters,
// gradient vectors, epochs, quality metric, measured baseline quality.
//
// GRACE_SCALE=<f> (default 1.0) scales the task sizes for smoke runs.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  std::printf("Table II: benchmarks and baseline quality (no compression, "
              "8 workers, 10 Gbps TCP)\n");
  bench::print_rule(118);
  std::printf("%-22s %-10s %-22s %10s %8s %6s %-16s %10s %10s\n", "Task",
              "Model", "Dataset", "Params", "GradVec", "Epochs", "Metric",
              "Baseline", "Thr(smp/s)");
  bench::print_rule(118);
  for (const auto& b : sim::standard_suite(bench::scale_from_env())) {
    const sim::RunResult run = bench::run_cell(b, "none");
    const double shown = run.quality_metric == "test-perplexity"
                             ? -run.best_quality  // stored as -ppl
                             : run.best_quality;
    std::printf("%-22s %-10s %-22s %10lld %8lld %6d %-16s %10.4f %10.0f\n",
                b.task.c_str(), b.model.c_str(), b.dataset.c_str(),
                static_cast<long long>(run.model_parameters),
                static_cast<long long>(run.gradient_tensors), b.epochs,
                b.quality_metric.c_str(), shown, run.throughput);
    if (!run.replicas_in_sync) std::printf("  WARNING: replicas diverged!\n");
  }
  bench::print_rule(118);
  std::printf("(Paper's Table II uses CIFAR-10/ImageNet/MovieLens/PTB/DAGM2007 "
              "with 269k..143M parameter models; this reproduction uses "
              "synthetic datasets and proportionally smaller models — see "
              "DESIGN.md.)\n");
  return 0;
}
