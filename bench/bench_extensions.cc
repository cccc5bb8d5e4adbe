// Extension roster: the nine Table-I methods the paper surveys but does not
// implement, evaluated on the standard testbed next to their closest
// implemented relatives (same format as Figure 6's panels).
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace grace;
  const double scale = bench::scale_from_env();

  struct Pair {
    const char* extension;
    const char* relative;
  };
  const Pair pairs[] = {
      {"lpcsvrg(4)", "qsgd(16)"},          // codebook quantizers
      {"wangni(0.01)", "randomk(0.01)"},   // random sparsifiers
      {"threelc(1)", "terngrad"},          // ternary quantizers
      {"sketchedsgd(5,0.05,0.01)", "topk(0.01)"},  // top-k recovery
      {"atomo(4,0.75)", "powersgd(4)"},    // low rank
      {"qsparselocal(0.01,4)", "topk(0.01)"},      // hybrid
      {"varbased(1)", "thresholdv(0.01)"},  // adaptive sparsifiers
      {"gradiveq(4,10)", "powersgd(4)"},    // low rank (PCA vs power iter)
      {"gradzip(4)", "powersgd(4)"},        // low rank (ALS vs power iter)
  };

  for (auto bench_make : {&sim::make_cnn_classification,
                          &sim::make_mlp_classification}) {
    sim::Benchmark b = bench_make(scale);
    std::printf("\n%s - %s\n", b.task.c_str(), b.model.c_str());
    bench::print_rule(96);
    std::printf("%-26s %5s %12s %14s %12s %12s\n", "compressor", "EF",
                "quality", "KB/iter", "overhead-ms", "smp/s");
    bench::print_rule(96);
    auto run_one = [&](const char* spec) {
      const sim::RunResult run = bench::run_cell(b, spec);
      std::printf("%-26s %5s %12.4f %14.1f %12.2f %12.0f%s\n", spec,
                  run.error_feedback ? "on" : "off", run.best_quality,
                  run.wire_bytes_per_iter / 1024.0, run.compress_s * 1e3,
                  run.throughput, run.replicas_in_sync ? "" : "  DIVERGED");
    };
    run_one("none");
    for (const auto& [ext, rel] : pairs) {
      run_one(ext);
      run_one(rel);
    }
  }
  return 0;
}
