// Ablation: fusion-bucket size under compute/communication overlap
// (sim/scheduler.h, DESIGN.md §7a). Per-tensor exchange (fusion_bytes = 0)
// overlaps early buckets with backward compute but pays per-message and
// per-tensor dispatch costs many times; all-in-one fusion (SIZE_MAX)
// amortizes those costs but cannot start communicating until the whole
// backward pass has finished. The sweet spot in between is the CGX /
// Horovod bucket-size tuning story: this sweep measures it on the simulated
// timeline.
//
// The per-tensor and all rows are also the paper's §V-D tensor-fusion
// ablation (Horovod-style bucketing amortizes per-tensor overheads): their
// `additive` column is the no-overlap iteration time, so per-tensor
// additive / all additive is the fusion speedup, and their quality column
// shows the side effect that shape-aware compressors change semantics
// (Top-k becomes global across layers).
//
// Prints a table and writes BENCH_bucket.json: for every (compressor,
// bucket cap) cell the overlap iteration time, the additive iteration time
// the legacy accounting would have charged, the analytic critical-path
// lower bound max(compute, link occupancy) + optimizer, the overlap
// fraction, samples/s and the best model quality. Sanity properties the
// scheduler tests also pin: iteration >= lower bound always, iteration <=
// additive always, and some finite bucket size beats both endpoints once
// per-tensor overheads and the no-overlap penalty both matter.
//
// GRACE_SCALE=<f> (default 1.0) scales the task size for smoke runs.
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

struct BucketCap {
  const char* label;  // short slug used in the table and JSON
  size_t fusion_bytes;
};

}  // namespace

int main() {
  using namespace grace;
  const double scale = bench::scale_from_env();

  const std::vector<BucketCap> caps = {
      {"per-tensor", 0},
      {"1MB", size_t{1} << 20},
      {"4MB", size_t{4} << 20},
      {"16MB", size_t{16} << 20},
      {"all", SIZE_MAX},
  };
  const std::vector<std::string> compressors = {"none", "topk(0.01)",
                                                "qsgd(64)"};

  std::string json;
  bench::appendf(json, "{\"benchmark\":\"bucket\",\"scale\":%g,\"runs\":[",
                 scale);
  bool first = true;
  for (auto make : {&sim::make_cnn_classification, &sim::make_ncf_recommendation}) {
    const sim::Benchmark b = make(scale);
    std::printf("\nBucket-size ablation: %s - %s (8 workers, 10 Gbps TCP, "
                "overlap on)\n",
                b.task.c_str(), b.model.c_str());
    bench::print_rule(120);
    std::printf("%-12s %-12s %8s %10s %10s %10s %9s %12s %9s\n", "compressor",
                "bucket", "buckets", "iter_ms", "additive", "bound_ms",
                "overlap", "samples/s", "quality");
    bench::print_rule(120);
    for (const std::string& spec : compressors) {
      for (const BucketCap& cap : caps) {
        const sim::RunResult run =
            bench::run_cell(b, spec, [&cap](sim::TrainConfig& cfg) {
              cfg.fusion_bytes = cap.fusion_bytes;
              cfg.time.overlap = true;
            });
        // Critical path floor: an iteration can end no earlier than the
        // compute and no earlier than the link drains (buckets serialize on
        // it), plus the optimizer step that follows the last bucket.
        const double bound_s =
            std::max(run.compute_s, run.phases.comm_s) + run.phases.optimizer_s;
        const double additive_s = run.phases.total_s();
        std::printf(
            "%-12s %-12s %8lld %10.3f %10.3f %10.3f %8.1f%% %12.0f %9.4f\n",
            spec.c_str(), cap.label,
            static_cast<long long>(run.buckets_per_iter),
            run.iteration_s * 1e3, additive_s * 1e3, bound_s * 1e3,
            run.overlap_fraction * 100.0, run.throughput, run.best_quality);
        if (!first) json += ",";
        first = false;
        bench::appendf(json,
                       "{\"model\":\"%s\",\"compressor\":\"%s\","
                       "\"bucket\":\"%s\",\"fusion_bytes\":%llu,"
                       "\"buckets_per_iter\":%lld,"
                       "\"iteration_seconds\":%.9g,"
                       "\"additive_iteration_seconds\":%.9g,"
                       "\"lower_bound_seconds\":%.9g,"
                       "\"overlap_saved_seconds\":%.9g,"
                       "\"overlap_fraction\":%.9g,"
                       "\"wire_bytes_per_iter\":%.9g,"
                       "\"samples_per_second\":%.9g,"
                       "\"best_quality\":%.9g}",
                       run.model.c_str(), spec.c_str(), cap.label,
                       static_cast<unsigned long long>(cap.fusion_bytes),
                       static_cast<long long>(run.buckets_per_iter),
                       run.iteration_s, additive_s, bound_s,
                       run.overlap_saved_s, run.overlap_fraction,
                       run.wire_bytes_per_iter, run.throughput,
                       run.best_quality);
      }
      bench::print_rule(120);
    }
  }
  json += "]}\n";

  std::printf(
      "\n(iter_ms is the overlap critical path; additive is what the legacy\n"
      "sum-of-phases accounting charges; bound_ms = max(compute, link) +\n"
      "optimizer is the analytic floor. overlap%% = time hidden behind\n"
      "backward compute. Fusion helps most where per-tensor overheads\n"
      "dominate: compare the per-tensor and all rows' additive column.)\n\n");
  return bench::write_bench_json("bucket", json) ? 0 : 1;
}
