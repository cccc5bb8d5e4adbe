// Figure 9: throughput per compressor for the CNN/CIFAR-like benchmark,
// contrasting TCP vs RDMA transports (the paper's PyTorch ResNet-9 panel).
// RDMA is consistently faster at equal link speed because of its lower
// per-message software overhead and higher payload efficiency.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  const sim::Benchmark b = sim::make_cnn_classification(bench::scale_from_env());

  std::printf("Figure 9: throughput, TCP vs RDMA (cnn-small, 8 workers, "
              "10 Gbps)\n");
  bench::print_rule(84);
  std::printf("%-18s %16s %16s %12s\n", "compressor", "TCP (smp/s)",
              "RDMA (smp/s)", "RDMA/TCP");
  bench::print_rule(84);

  for (const auto& spec : bench::evaluation_roster()) {
    double thr[2] = {0, 0};
    for (int t = 0; t < 2; ++t) {
      thr[t] = bench::run_cell(b, spec, [t](sim::TrainConfig& cfg) {
                 cfg.net.transport =
                     t == 0 ? comm::Transport::Tcp : comm::Transport::Rdma;
               }).throughput;
    }
    std::printf("%-18s %16.0f %16.0f %12.2f\n", spec.c_str(), thr[0], thr[1],
                thr[1] / thr[0]);
  }
  std::printf("\n(paper: RDMA consistently better than TCP for every "
              "compressor)\n");
  return 0;
}
