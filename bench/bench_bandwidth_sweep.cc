// Bandwidth sensitivity (§V-A / §V-E): baseline and representative
// compressors across 1 / 10 / 25 Gbps links. Reproduces two paper
// observations: moving 10 -> 25 Gbps yields only mild improvements (the
// paper measured ~1.3% on average), while 10 -> 1 Gbps flips which methods
// beat the baseline.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  const sim::Benchmark b = sim::make_mlp_classification(bench::scale_from_env());

  const std::vector<std::string> roster = {"none", "topk(0.01)",
                                           "randomk(0.01)", "qsgd(64)",
                                           "efsignsgd", "powersgd(4)"};
  const double bandwidths[] = {1.0, 10.0, 25.0};

  std::printf("Bandwidth sweep: throughput (samples/s), mlp-wide, 8 workers, "
              "TCP\n");
  bench::print_rule(84);
  std::printf("%-16s %14s %14s %14s %18s\n", "compressor", "1 Gbps", "10 Gbps",
              "25 Gbps", "10->25 speedup");
  bench::print_rule(84);
  for (const auto& spec : roster) {
    double thr[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      thr[i] = bench::run_cell(b, spec, [&](sim::TrainConfig& cfg) {
                 cfg.net.bandwidth_gbps = bandwidths[i];
               }).throughput;
    }
    std::printf("%-16s %14.0f %14.0f %14.0f %17.1f%%\n", spec.c_str(), thr[0],
                thr[1], thr[2], (thr[2] / thr[1] - 1.0) * 100.0);
  }
  std::printf("\n(compressed methods barely move with bandwidth — they are "
              "overhead-bound; the baseline gains the most from faster "
              "links)\n");
  return 0;
}
