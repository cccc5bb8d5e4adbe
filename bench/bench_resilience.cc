// Resilience scenario matrix (docs/RESILIENCE.md): three named deployment
// profiles — datacenter, flaky-WAN, federated-edge — each pairing a
// FleetProfile (comm/fleet.h per-rank link/compute heterogeneity) with a
// deterministic chaos plan (src/faults: membership churn, outage windows,
// partial participation, drops), crossed with {none, topk(0.01)}. The
// compression angle: a compressed exchange retransmits fewer bytes per
// lost message and ships smaller join-bootstrap traffic, so the same
// chaos plan degrades a compressed run less — resilience is where
// compression pays a second time.
//
//   bench_resilience                      # run matrix, write BENCH_resilience.json
//   bench_resilience --ci <baseline.json> # diff each cell's RunReport against
//                                         # the committed baseline, exit
//                                         # non-zero on any regression verdict
//
// Every cell is one line of BENCH_resilience.json (a self-contained
// RunReport document), diffed with the sim/report.cc verdict rules: exact
// for deterministic quantities (CRCs, wire counters, fault/churn tallies),
// tight tolerance for simulated seconds, loose for measured codec times —
// machine-portable, but an injected slowdown still trips it:
//   GRACE_TIME_SCALE=1000 bench_resilience --ci BENCH_resilience.baseline.json
// must exit non-zero. Wired as the slow-tier ctest `bench_resilience_check`.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "comm/fleet.h"
#include "sim/critical_path.h"
#include "sim/metric_registry.h"
#include "sim/report.h"
#include "sim/tasks.h"

namespace {

constexpr int kWorkers = 4;
constexpr int kEpochs = 4;

struct Scenario {
  const char* label;
  grace::comm::FleetProfile fleet;
  grace::faults::FaultSpec spec;
};

// The three deployment profiles. Chaos plans are seeded and expressed in
// absolute epochs, so every run of the matrix replays the same events.
std::vector<Scenario> make_scenarios() {
  using grace::comm::FleetProfile;
  std::vector<Scenario> out;
  {
    // Uniform fast links; the stressor is elastic membership — rank 2
    // leaves after epoch 0 and rejoins (bootstrapping parameters, EF
    // residuals and optimizer state from rank 0) for the final epoch.
    Scenario s;
    s.label = "datacenter";
    s.fleet = FleetProfile::datacenter(kWorkers);
    s.spec.seed = 11;
    s.spec.churn.push_back({/*epoch=*/1, /*rank=*/2, /*join=*/false});
    s.spec.churn.push_back({/*epoch=*/3, /*rank=*/2, /*join=*/true});
    out.push_back(std::move(s));
  }
  {
    // Long-haul links with jittery members: lossy delivery plus seeded
    // outage windows on rank 1 (sat-out rounds + a reconnect stall).
    Scenario s;
    s.label = "flaky-wan";
    s.fleet = FleetProfile::flaky_wan(kWorkers, /*seed=*/3);
    s.spec.seed = 13;
    s.spec.drop_prob = 0.02;
    s.spec.outage_prob = 0.10;
    s.spec.outage_iters = 2;
    s.spec.outage_rank = 1;
    s.spec.outage_reconnect_stall_s = 2e-3;
    out.push_back(std::move(s));
  }
  {
    // Edge fleet: slow uplinks, heterogeneous device speeds, and clients
    // that only check in for ~75% of rounds (absorbed into EF residuals).
    Scenario s;
    s.label = "federated-edge";
    s.fleet = FleetProfile::federated_edge(kWorkers, /*seed=*/5);
    s.spec.seed = 17;
    s.spec.participation_rate = 0.75;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grace;

  const char* baseline_path =
      bench::ci_baseline_arg(argc, argv, "bench_resilience");

  sim::Benchmark bench = sim::make_cnn_classification(0.1);
  const std::vector<Scenario> scenarios = make_scenarios();
  const std::vector<std::string> compressors = {"none", "topk(0.01)"};

  std::printf(
      "Resilience matrix: %s, %s — fleet profile x chaos plan x compressor\n\n",
      bench.model.c_str(), bench.dataset.c_str());
  std::printf("%-28s %10s %9s %9s %8s %7s %7s %7s %8s\n", "cell", "samples/s",
              "quality", "stall_ms", "sat_out", "outages", "leaves", "joins",
              "degraded");
  bench::print_rule(100);

  std::vector<std::pair<std::string, std::string>> rows;  // label, report json
  for (const Scenario& sc : scenarios) {
    for (const std::string& spec : compressors) {
      const std::string label = std::string(sc.label) + "/" + spec;
      sim::TrainConfig cfg = sim::default_config(bench);
      cfg.n_workers = kWorkers;
      cfg.net.n_workers = kWorkers;
      cfg.epochs = kEpochs;
      cfg.grace.compressor_spec = spec;
      cfg.fleet = sc.fleet;
      if (const char* s = std::getenv("GRACE_TIME_SCALE")) {
        cfg.time.compression_time_scale *= std::atof(s);
      }
      bench::apply_paper_overrides(spec, cfg, /*classification_task=*/true);

      const faults::FaultPlan plan(sc.spec);
      cfg.faults = &plan;
      sim::MetricRegistry registry(cfg.n_workers);
      sim::CriticalPathCollector collector(cfg.n_workers);
      cfg.metrics = &registry;
      cfg.critical_path = &collector;

      const sim::RunResult run = sim::train(bench.factory, cfg);
      const faults::FaultCounters& fc = run.faults;
      std::printf(
          "%-28s %10.0f %9.4f %9.3f %8llu %7llu %7llu %7llu %8llu\n",
          label.c_str(), run.throughput, run.final_quality,
          run.phases.stall_s * 1e3,
          static_cast<unsigned long long>(fc.sat_out_rounds),
          static_cast<unsigned long long>(fc.outages),
          static_cast<unsigned long long>(fc.leaves),
          static_cast<unsigned long long>(fc.joins),
          static_cast<unsigned long long>(fc.degraded_iters));

      const sim::RunReport report = sim::build_run_report(run, {}, &registry);
      rows.emplace_back(label, sim::run_report_json(report));
    }
    bench::print_rule(100);
  }

  return bench::report_gate("resilience", rows, baseline_path);
}
