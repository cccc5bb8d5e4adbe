// Figures 6 and 7: model quality vs training throughput and vs transmitted
// data volume per iteration (both normalized to the no-compression
// baseline) for every implemented compressor on every benchmark, at
// 10 Gbps / TCP / 8 workers — the paper's §V-B headline experiment. Fig. 7
// is the rel-vol column of panels (b)-(d). Panel (d) additionally
// contrasts TopK with and without error feedback, as the paper highlights
// for the recommendation task.
//
// Set GRACE_SCALE (default 1.0) to shrink datasets/epochs for smoke runs.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  const auto suite = sim::standard_suite(bench::scale_from_env());
  const char panel[] = {'a', 'b', 'c', 'd', 'e'};

  std::printf("Figures 6 and 7: quality vs relative throughput and relative "
              "data volume (8 workers, 10 Gbps TCP). Paper Fig. 6 panels "
              "(a,b)=CIFAR CNNs, (c)=ImageNet, (d)=NCF, (e)=PTB LSTM, "
              "(f)=U-Net; ours: (a) cnn, (b) mlp/'VGG', (c) lstm, (d) ncf, "
              "(e) unet. Paper Fig. 7 (a-c) = our (b)-(d) rel-vol.\n");
  int panel_at = 0;
  for (const auto& b : suite) {
    std::printf("\n(%c) %s - %s - %s\n", panel[panel_at++], b.task.c_str(),
                b.model.c_str(), b.dataset.c_str());
    bench::print_rule(115);
    std::printf("%-18s %5s %12s %10s %12s %12s %10s %12s %10s\n", "compressor",
                "EF", "throughput", "rel-thr", b.quality_metric.c_str(),
                "KB/iter", "rel-vol", "overhead-ms", "comm-ms");
    bench::print_rule(115);

    double base_throughput = 0.0;
    double base_volume = 0.0;
    auto roster = bench::evaluation_roster();
    if (b.model == "ncf") roster.push_back("topk(0.01)+noef");  // Fig 6d inset
    for (const auto& entry : roster) {
      const sim::RunResult run = bench::run_cell(b, entry);
      if (entry == "none") {
        base_throughput = run.throughput;
        base_volume = run.wire_bytes_per_iter;
      }
      const double quality = run.quality_metric == "test-perplexity"
                                 ? -run.best_quality
                                 : run.best_quality;
      std::printf(
          "%-18s %5s %12.0f %10.2f %12.4f %12.1f %10.4f %12.2f %10.2f%s\n",
          entry.c_str(), run.error_feedback ? "on" : "off", run.throughput,
          base_throughput > 0 ? run.throughput / base_throughput : 1.0,
          quality, run.wire_bytes_per_iter / 1024.0,
          base_volume > 0 ? run.wire_bytes_per_iter / base_volume : 1.0,
          run.compress_s * 1e3, run.phases.comm_s * 1e3,
          run.replicas_in_sync ? "" : "  DIVERGED");
    }
  }
  std::printf("\n(paper Fig. 7: more transmitted data broadly implies higher "
              "quality, with exceptions such as Adaptive; EF hurts TopK on "
              "the recommendation task only)\n");
  return 0;
}
