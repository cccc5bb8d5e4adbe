// Figure 10: the Figure 6 classification experiment repeated on 1 Gbps
// links. With the network bottleneck emphasized, many compressors now beat
// the no-compression baseline in throughput.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  // The paper's Fig. 10 model is its biggest classifier (ResNet-50); ours
  // is the parameter-heaviest benchmark, the VGG-like MLP.
  const sim::Benchmark b = sim::make_mlp_classification(bench::scale_from_env());

  std::printf("Figure 10: quality vs relative throughput at 1 Gbps "
              "(mlp-wide, 8 workers, TCP)\n");
  bench::print_rule(92);
  std::printf("%-18s %14s %12s %16s %12s\n", "compressor", "throughput",
              "rel-thr", "top1-accuracy", "KB/iter");
  bench::print_rule(92);

  double base = 0.0;
  int faster_than_baseline = 0;
  for (const auto& spec : bench::evaluation_roster()) {
    const sim::RunResult run = bench::run_cell(
        b, spec, [](sim::TrainConfig& cfg) { cfg.net.bandwidth_gbps = 1.0; });
    if (spec == "none") base = run.throughput;
    const double rel = base > 0 ? run.throughput / base : 1.0;
    if (spec != "none" && rel > 1.0) ++faster_than_baseline;
    std::printf("%-18s %14.0f %12.2f %16.4f %12.1f%s\n", spec.c_str(),
                run.throughput, rel, run.best_quality,
                run.wire_bytes_per_iter / 1024.0,
                run.replicas_in_sync ? "" : "  DIVERGED");
  }
  std::printf("\n%d of 16 compressors beat the baseline at 1 Gbps (paper: "
              "\"a large number of compressors obtain a throughput speedup "
              "over the baseline\")\n", faster_than_baseline);
  return 0;
}
