// Fleet-scale topology sweep (DESIGN.md §10): drives the simulated world
// (sim/simworld.h) over ranks x topology x compressor without spawning a
// thread per rank, so four-digit worlds price in milliseconds. This is the
// scaling view the thread-backed benches cannot reach: how ring,
// sharded parameter-server and rack-aware hierarchical aggregation trade
// off as the fleet grows, per compressor.
//
// Prints a table and writes BENCH_scale.json (schema in README.md).
//   cmake --build build --target bench_scale && ./bench/bench_scale
//
// GRACE_SCALE=<f> (default 1.0) scales the probe model; --ci runs a small
// deterministic sweep for the slow-tier ctest gate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "comm/topology.h"
#include "sim/simworld.h"
#include "sim/tasks.h"

int main(int argc, char** argv) {
  using namespace grace;
  const bool ci =
      bench::gate_args(argc, argv, "bench_scale", /*with_baseline=*/false).ci;
  const double scale = ci ? 0.1 : bench::scale_from_env();

  sim::Benchmark b = sim::make_cnn_classification(scale);

  std::vector<int> fleets = {8, 64, 256, 1024};
  std::vector<std::string> compressors = {"none", "topk(0.01)", "qsgd(64)",
                                          "signsgd"};
  if (ci) {
    fleets = {8, 256};
    compressors = {"none", "topk(0.01)"};
  }

  std::printf("Fleet-scale topology sweep: %s, simulated worlds "
              "(10 Gbps TCP, rack=16, ps shards=min(n,16))\n",
              b.model.c_str());
  bench::print_rule(100);
  std::printf("%6s %-22s %-12s %12s %12s %14s %14s\n", "ranks", "topology",
              "compressor", "iter ms", "smp/s", "MB/iter/rank", "msgs total");
  bench::print_rule(100);

  std::string json;
  bench::appendf(json, "{\"benchmark\":\"scale\",\"scale\":%g,\"runs\":[",
                 scale);
  bool first = true;
  for (int n : fleets) {
    for (int t = 0; t < 3; ++t) {
      for (const std::string& spec : compressors) {
        sim::TrainConfig cfg = sim::default_config(b);
        cfg.n_workers = n;
        cfg.epochs = 1;
        cfg.grace.compressor_spec = spec;
        cfg.time.overlap = true;
        cfg.grace.topology.kind =
            t == 0   ? comm::TopologyKind::Ring
            : t == 1 ? comm::TopologyKind::ParameterServer
                     : comm::TopologyKind::Hierarchical;
        cfg.grace.topology.ps_shards = n < 16 ? n : 16;
        cfg.grace.topology.ranks_per_rack = 16;
        sim::ScaleResult r = sim::simulate_scale(b.factory, cfg);
        std::printf("%6d %-22s %-12s %12.3f %12.0f %14.3f %14llu\n", n,
                    r.topology.c_str(), spec.c_str(), r.iteration_s * 1e3,
                    r.throughput,
                    static_cast<double>(r.wire_bytes_per_iter) / (1 << 20),
                    static_cast<unsigned long long>(r.comm_messages));
        if (!first) json += ",";
        first = false;
        json += sim::scale_result_json(r);
      }
    }
    bench::print_rule(100);
  }
  json += "]}\n";

  std::printf(
      "\nThe ring's per-rank traffic is rank-count independent but pays\n"
      "2(n-1) latency steps; the PS round serializes n uploads through the\n"
      "serving shard; the hierarchy keeps the cross-rack ring at n/16\n"
      "steps for intra-rack fan costs. Compression moves the crossover\n"
      "points — that interaction is the sweep.\n\n");
  return bench::write_bench_json("scale", json) ? 0 : 1;
}
