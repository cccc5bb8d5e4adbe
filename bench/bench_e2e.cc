// End-to-end traced training benchmark: a matrix of compressors x simulated
// network configurations, each run with the sim/trace.h observability layer
// attached. For every cell it reports where the iteration time goes (the
// six-phase breakdown), the logical wire traffic, and the final training
// loss — the run-level view behind the paper's Figures 8/9 speedup claims:
// compression only pays when the comm phase it shrinks dominates the
// compute + codec phases it adds.
//
// Every cell also runs with the critical-path collector and the metric
// registry attached. Prints a table and the last cell's run report
// (docs/OBSERVABILITY.md §4), and writes BENCH_e2e.json (schema documented
// in README.md), BENCH_e2e.report.json (the per-cell run reports) and
// BENCH_e2e.trace.json, a Chrome trace-event export of the last cell's
// per-rank timeline (load it in chrome://tracing or ui.perfetto.dev; see
// docs/OBSERVABILITY.md).
//
// GRACE_SCALE=<f> (default 1.0) scales the task size for smoke runs.
// --faults=<plan.json> runs the whole sweep under a deterministic fault
// plan (docs/RESILIENCE.md); resilience counters land in the JSON.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/critical_path.h"
#include "sim/metric_registry.h"
#include "sim/report.h"
#include "sim/tasks.h"
#include "sim/trace.h"
#include "sim/trace_chrome.h"

namespace {

struct NetConfig {
  const char* label;  // short slug used in the table and JSON
  double bandwidth_gbps;
  grace::comm::Transport transport;
  double latency_us;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace grace;

  const char* plan_path = bench::fault_plan_arg(argc, argv, "bench_e2e");
  faults::FaultPlan plan;
  if (plan_path != nullptr) {
    plan = faults::FaultPlan(bench::load_fault_spec(plan_path));
    std::printf("fault plan: %s\n", faults::fault_spec_json(plan.spec()).c_str());
  }

  const double scale = bench::scale_from_env();

  // A slow commodity network, the paper's testbed, and a fast RDMA fabric:
  // the comm phase shrinks ~25x across the sweep, which is exactly the
  // regime change that decides whether a compressor helps end-to-end.
  const std::vector<NetConfig> networks = {
      {"tcp-1g", 1.0, comm::Transport::Tcp, 25.0},
      {"tcp-10g", 10.0, comm::Transport::Tcp, 10.0},
      {"rdma-25g", 25.0, comm::Transport::Rdma, 2.0},
  };
  const std::vector<std::string> compressors = {"none", "topk(0.01)",
                                                "qsgd(64)"};

  sim::Benchmark bench = sim::make_cnn_classification(scale * 0.3);

  std::printf("End-to-end traced runs: %s, %s — per-phase time breakdown\n\n",
              bench.model.c_str(), bench.dataset.c_str());
  std::printf("%-10s %-12s %9s %9s %9s %9s %9s %9s %10s %9s %10s\n", "network",
              "compressor", "fwd_ms", "bwd_ms", "cmp_ms", "comm_ms", "dec_ms",
              "opt_ms", "KB/iter", "loss", "samples/s");
  bench::print_rule(114);

  std::string json;
  bench::appendf(json,
                 "{\"benchmark\":\"e2e\",\"scale\":%g,\"task\":\"%s\","
                 "\"runs\":[",
                 scale, bench.task.c_str());
  bool first = true;
  std::string chrome_trace;  // last cell's per-rank timeline, exported below
  std::string report_rows;   // per-cell run reports
  std::string last_report_text;
  for (const NetConfig& net : networks) {
    for (const std::string& spec : compressors) {
      sim::TrainConfig cfg = sim::default_config(bench);
      cfg.grace.compressor_spec = spec;
      cfg.net.bandwidth_gbps = net.bandwidth_gbps;
      cfg.net.transport = net.transport;
      cfg.net.latency_us = net.latency_us;
      bench::apply_paper_overrides(spec, cfg, /*classification_task=*/true);

      if (plan_path != nullptr) cfg.faults = &plan;

      sim::Trace trace(cfg.n_workers);
      sim::MetricRegistry registry(cfg.n_workers);
      sim::CriticalPathCollector collector(cfg.n_workers);
      cfg.trace = &trace;
      cfg.metrics = &registry;
      cfg.critical_path = &collector;
      sim::RunResult run = sim::train(bench.factory, cfg);
      chrome_trace = sim::trace_chrome_json(trace);
      const sim::RunReport report = sim::build_run_report(run);
      if (!report_rows.empty()) report_rows += ',';
      report_rows += "{\"network\":\"";
      report_rows += net.label;
      report_rows += "\",\"compressor\":\"";
      report_rows += spec;
      report_rows += "\",\"report\":";
      report_rows += sim::run_report_json(report);
      report_rows += '}';
      last_report_text = sim::run_report_text(report);

      const sim::PhaseBreakdown& p = run.phases;
      std::printf(
          "%-10s %-12s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %10.1f %9.4f "
          "%10.0f\n",
          net.label, spec.c_str(), p.forward_s * 1e3, p.backward_s * 1e3,
          p.compress_s * 1e3, p.comm_s * 1e3, p.decompress_s * 1e3,
          p.optimizer_s * 1e3, run.wire_bytes_per_iter / 1024.0,
          run.epochs.empty() ? 0.0 : run.epochs.back().train_loss,
          run.throughput);

      if (!first) json += ",";
      first = false;
      bench::appendf(json,
                     "{\"network\":\"%s\",\"bandwidth_gbps\":%g,"
                     "\"transport\":\"%s\",\"latency_us\":%g,\"result\":%s}",
                     net.label, net.bandwidth_gbps,
                     comm::transport_name(net.transport).c_str(),
                     net.latency_us, sim::run_result_json(run).c_str());
    }
    bench::print_rule(114);
  }
  json += "]}\n";

  std::printf("\n%s", last_report_text.c_str());
  std::printf(
      "\nPhases sum to the simulated iteration time; compression wins only\n"
      "where comm_ms dominates (slow links) and loses its codec cost back on\n"
      "fast fabrics (paper Fig. 9). Open the trace in chrome://tracing or\n"
      "ui.perfetto.dev.\n\n");
  std::string report;
  bench::appendf(report,
                 "{\"benchmark\":\"e2e\",\"scale\":%g,\"cells\":[%s]}\n",
                 scale, report_rows.c_str());
  const bool ok = bench::write_bench_json("e2e", json) &&
                  bench::write_bench_json("e2e.trace", chrome_trace + "\n") &&
                  bench::write_bench_json("e2e.report", report);
  return ok ? 0 : 1;
}
