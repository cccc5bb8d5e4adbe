// Ablation (§IV-A): ring collectives (Allreduce/Allgather) vs
// parameter-server vs hierarchical rack-aware communication. The PS round
// serializes every upload through one link and pushes a dense model back,
// so it loses to collectives for the baseline but narrows the gap when
// uploads are heavily compressed; hierarchical trades leader-link fan-in
// for a much shorter cross-machine ring.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  const sim::Benchmark b = sim::make_mlp_classification(bench::scale_from_env());

  std::printf("Topology ablation: ring vs parameter server vs hierarchical "
              "(mlp-wide, 8 workers, 10 Gbps TCP)\n");
  bench::print_rule(104);
  std::printf("%-16s %14s %14s %14s %10s %14s\n", "compressor", "ring smp/s",
              "ps smp/s", "hier smp/s", "PS/ring", "quality (PS)");
  bench::print_rule(104);
  for (const char* spec : {"none", "topk(0.01)", "qsgd(64)", "efsignsgd",
                           "dgc(0.01)"}) {
    double thr[3] = {0, 0, 0};
    double ps_quality = 0.0;
    for (int t = 0; t < 3; ++t) {
      const sim::RunResult run =
          bench::run_cell(b, spec, [t](sim::TrainConfig& cfg) {
            cfg.grace.topology.kind =
                t == 0   ? comm::TopologyKind::Ring
                : t == 1 ? comm::TopologyKind::ParameterServer
                         : comm::TopologyKind::Hierarchical;
            cfg.grace.topology.ranks_per_rack = 4;
          });
      thr[t] = run.throughput;
      if (t == 1) ps_quality = run.best_quality;
    }
    std::printf("%-16s %14.0f %14.0f %14.0f %10.2f %14.4f\n", spec, thr[0],
                thr[1], thr[2], thr[1] / thr[0], ps_quality);
  }
  std::printf("\n(the paper's Horovod-based implementation supports "
              "collectives only; this reproduces the §IV-A claim that a "
              "parameter server provides an Allreduce-equivalent aggregation "
              "function)\n");
  return 0;
}
