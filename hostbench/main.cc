// Host-measured training benchmark: one workload per invocation.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 times repeated sim::train() calls (tracing off) and reports the
// end-to-end metrics; --trace 1 alternates bare train(), observed train()
// and the shadow loop (shadow.h) and reports the per-layer metrics. Every
// metric is printed as a "metric" line with its unit and provenance; the
// last line of standard output is the JSON result. The exit code is 0 only
// when every operation passed its checks. README.md lists the workloads
// and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "shadow.h"
#include "runtime/thread_pool.h"
#include "sim/critical_path.h"
#include "sim/metric_registry.h"
#include "sim/trace.h"
#include "stats.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using hostbench::median;
using hostbench::quantile;

// Operations a run makes at least, however long they take.
constexpr int kMinOps = 3;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 15;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

// Where a number comes from: the host clock, the simulator's cost model
// (which charges measured codec seconds x0.3), or a deterministic count.
enum class Provenance { Host, Simulated, Count };

const char* provenance_name(Provenance p) {
  switch (p) {
    case Provenance::Host:
      return "host";
    case Provenance::Simulated:
      return "simulated";
    case Provenance::Count:
      return "count";
  }
  return "?";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Provenance provenance = Provenance::Host;
  std::string note;  // sample count and spread, for the printed line
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// User + system CPU seconds of the whole process (every thread) so far.
// Unlike wall time it leaves out the time a shared host's hypervisor
// deschedules this VM's cores (steal), which on a busy host stretches wall
// time by up to 3x from one minute to the next.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string spread_note(const std::vector<double>& v) {
  std::ostringstream os;
  os << "median of " << v.size() << ", iqr " << hostbench::iqr_pct(v) << "%";
  return os.str();
}

void print_metric(const char* kind, const Metric& m) {
  std::cout << kind << " " << m.name << " = " << json_number(m.value) << " "
            << m.unit << " [" << provenance_name(m.provenance) << "]"
            << (m.note.empty() ? "" : " " + m.note) << "\n";
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str())) return false;
  }
  return !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

struct Outcome {
  int attempted = 0;
  int failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;  // the JSON result's metrics
  std::vector<Metric> context;  // printed alongside, not in the result

  void fail(const std::string& why) {
    ++failed;
    std::cerr << "hostbench: failed operation: " << why << "\n";
  }
};

struct SetupTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

// Builds the task kSetupReps times; returns the last one and the wall and
// CPU seconds each build took.
hostbench::Task timed_setup(const hostbench::WorkloadSpec& w, const Args& a,
                            SetupTimes& times) {
  hostbench::Task task;
  for (int i = 0; i < kSetupReps; ++i) {
    const double cpu = process_cpu_seconds();
    const Clock::time_point t = Clock::now();
    task = hostbench::build_task(w, a.seed);
    times.wall_s.push_back(seconds_since(t));
    times.cpu_s.push_back(process_cpu_seconds() - cpu);
  }
  return task;
}

// The run's kSeedsPerRun training seeds. The first train() of each seed
// pins its parameter CRC; every later repetition must reproduce it.
class SeedRotation {
 public:
  SeedRotation(const hostbench::Task& task, uint64_t seed) : cfg_(task.cfg) {
    for (int i = 0; i < hostbench::kSeedsPerRun; ++i) {
      seeds_[static_cast<size_t>(i)] = hostbench::training_seed(seed, i);
    }
  }

  // The task's config with training seed i.
  const grace::sim::TrainConfig& config(int i) {
    cfg_.seed = seeds_[static_cast<size_t>(i)];
    return cfg_;
  }

  // Checks a train() result for seed i; "" when it passed.
  std::string check(const grace::sim::RunResult& r, int i,
                    const hostbench::WorkloadSpec& w) {
    const auto k = static_cast<size_t>(i);
    if (!pinned_[k]) {
      crc_[k] = r.parameters_crc32;
      pinned_[k] = true;
    }
    std::string why = hostbench::check_run(r, w, crc_[k]);
    if (why.empty()) loss_[k] = hostbench::final_train_loss(r);
    return why;
  }

  uint32_t crc(int i) const { return crc_[static_cast<size_t>(i)]; }

  // Mean final loss over the seeds; NaN unless every seed passed once.
  double mean_loss() const {
    double sum = 0.0;
    for (double l : loss_) sum += l;
    return sum / hostbench::kSeedsPerRun;
  }

 private:
  using Slots = std::array<double, hostbench::kSeedsPerRun>;
  grace::sim::TrainConfig cfg_;
  std::array<uint64_t, hostbench::kSeedsPerRun> seeds_{};
  std::array<uint32_t, hostbench::kSeedsPerRun> crc_{};
  std::array<bool, hostbench::kSeedsPerRun> pinned_{};
  Slots loss_ = [] {
    Slots s;
    s.fill(std::numeric_limits<double>::quiet_NaN());
    return s;
  }();
};

// Whether a run makes another operation (or round): at least `min_ops`,
// and as many more as start within the measured seconds.
bool more_ops(int done, int min_ops, Clock::time_point start, const Args& a) {
  return done < min_ops || seconds_since(start) < a.seconds;
}

void check_loss(double loss, const hostbench::WorkloadSpec& w, Outcome& out) {
  if (hostbench::loss_within_reference(loss, w)) return;
  out.correct = false;
  std::cerr << "hostbench: final_train_loss " << loss
            << " outside the reference " << w.reference_loss << " +- "
            << w.loss_tolerance * 100.0 << "%\n";
}

// --trace 0: repeated bare train() calls after one untimed warm-up.
void run_end_to_end(const hostbench::WorkloadSpec& w, const Args& a,
                    Outcome& out) {
  SetupTimes setup;
  const hostbench::Task task = timed_setup(w, a, setup);
  SeedRotation seeds(task, a.seed);

  // Untimed: the first train() in a process runs up to 2x slower.
  ++out.attempted;
  if (std::string why = seeds.check(
          grace::sim::train(task.bench.factory, seeds.config(0)), 0, w);
      !why.empty()) {
    out.fail("warm-up: " + why);
  }

  std::vector<double> host_sps, cpu_sps, sim_sps;
  const Clock::time_point start = Clock::now();
  // Every training seed at least once: the loss is their mean.
  const int min_ops = std::max(kMinOps, hostbench::kSeedsPerRun);
  for (int op = 0; more_ops(op, min_ops, start, a); ++op) {
    const int i = op % hostbench::kSeedsPerRun;
    const grace::sim::TrainConfig& cfg = seeds.config(i);
    ++out.attempted;
    const double cpu = process_cpu_seconds();
    const Clock::time_point t = Clock::now();
    const grace::sim::RunResult r = grace::sim::train(task.bench.factory, cfg);
    const double wall = seconds_since(t);
    const double cpu_s = process_cpu_seconds() - cpu;
    if (std::string why = seeds.check(r, i, w); !why.empty()) {
      out.fail(why);
      continue;
    }
    const auto samples = static_cast<double>(r.samples_per_epoch * cfg.epochs);
    host_sps.push_back(samples / wall);
    cpu_sps.push_back(samples / cpu_s);
    sim_sps.push_back(r.throughput);
  }
  const double loss = seeds.mean_loss();
  check_loss(loss, w, out);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.metrics = {
      {"train_samples_per_cpu_s", median(cpu_sps), "samples/cpu-s",
       Provenance::Host, spread_note(cpu_sps)},
      {"sim_samples_per_s", median(sim_sps), "samples/s",
       Provenance::Simulated, spread_note(sim_sps)},
      {"setup_s", median(setup.cpu_s), "s", Provenance::Host,
       "process CPU, " + spread_note(setup.cpu_s)},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
       Provenance::Host, "getrusage ru_maxrss"},
      {"final_train_loss", loss, "loss", Provenance::Count,
       "mean over " + std::to_string(hostbench::kSeedsPerRun) +
           " training seeds"},
  };
  // Wall-clock figures: what a user waits for, but on a shared host they
  // swing with vCPU steal far beyond any usable regression bound.
  out.context = {
      {"train_samples_per_s", median(host_sps), "samples/s", Provenance::Host,
       "wall clock, " + spread_note(host_sps)},
      {"setup_wall_s", median(setup.wall_s), "s", Provenance::Host,
       spread_note(setup.wall_s)},
  };
}

// --trace 1: rounds of bare train(), observed train(), and the shadow loop
// with spans off and on, all on the round's training seed; every shadow-loop run must
// reproduce that seed's train() parameters.
void run_traced(const hostbench::WorkloadSpec& w, const Args& a,
                Outcome& out) {
  using namespace grace;
  const hostbench::Task task = hostbench::build_task(w, a.seed);
  const int n = task.cfg.n_workers;
  SeedRotation seeds(task, a.seed);

  ++out.attempted;
  const sim::RunResult warm = sim::train(task.bench.factory, seeds.config(0));
  if (std::string why = seeds.check(warm, 0, w); !why.empty()) {
    out.fail("warm-up: " + why);
  }
  const int64_t iters_per_run =
      warm.samples_per_epoch * task.cfg.epochs /
      (static_cast<int64_t>(n) * task.cfg.batch_per_worker);

  auto check_shadow = [&](const hostbench::ShadowResult& d,
                          int i) -> std::string {
    if (!d.ranks_identical) return "shadow loop ranks hold different parameters";
    if (!d.replicas_in_sync) return "shadow loop replicas out of sync";
    if (d.parameters_crc32 != seeds.crc(i)) {
      return "shadow loop parameters differ from train()'s (diverged semantics)";
    }
    if (d.comm_messages != warm.comm_messages ||
        d.comm_payload_bytes != warm.comm_payload_bytes) {
      return "shadow loop transport counts differ from train()'s";
    }
    if (d.iterations != iters_per_run) return "shadow loop iteration count differs";
    return "";
  };
  ++out.attempted;
  if (std::string why = check_shadow(
          hostbench::run_shadow(task.bench.factory, seeds.config(0), false),
          0);
      !why.empty()) {
    out.fail("warm-up: " + why);
  }

  // Host ms per iteration of each configuration, one entry per round in
  // which all four passed. Overheads are taken per round (the four runs
  // sit next to each other in time, so a busy neighbour slows them
  // alike) and then the median over rounds.
  std::vector<double> bare_ms, observed_ms, off_ms, on_ms;
  std::vector<hostbench::ShadowResult> traced;
  const auto per_iter_ms = [&](double wall_s) {
    return wall_s * 1e3 / static_cast<double>(iters_per_run);
  };
  const auto timed_train = [&](const sim::TrainConfig& cfg, int i,
                               const char* what) {
    ++out.attempted;
    const Clock::time_point t = Clock::now();
    const sim::RunResult r = sim::train(task.bench.factory, cfg);
    const double wall = seconds_since(t);
    if (std::string why = seeds.check(r, i, w); !why.empty()) {
      out.fail(what + why);
      return -1.0;
    }
    return per_iter_ms(wall);
  };
  const Clock::time_point start = Clock::now();
  for (int round = 0; more_ops(round, kMinOps, start, a); ++round) {
    const int i = round % hostbench::kSeedsPerRun;
    const double bare = timed_train(seeds.config(i), i, "");
    sim::TrainConfig observed_cfg = seeds.config(i);
    sim::Trace trace(n);
    sim::MetricRegistry metrics(n);
    sim::CriticalPathCollector cpath(n);
    observed_cfg.trace = &trace;
    observed_cfg.metrics = &metrics;
    observed_cfg.critical_path = &cpath;
    const double observed = timed_train(observed_cfg, i, "observed: ");
    double shadow[2] = {-1.0, -1.0};  // spans off, on
    hostbench::ShadowResult d;
    for (const bool spans : {false, true}) {
      ++out.attempted;
      d = hostbench::run_shadow(task.bench.factory, seeds.config(i), spans);
      if (std::string why = check_shadow(d, i); !why.empty()) {
        out.fail(why);
        continue;
      }
      shadow[spans] = per_iter_ms(d.wall_s);
    }
    if (bare < 0 || observed < 0 || shadow[0] < 0 || shadow[1] < 0) continue;
    traced.push_back(std::move(d));
    bare_ms.push_back(bare);
    observed_ms.push_back(observed);
    off_ms.push_back(shadow[0]);
    on_ms.push_back(shadow[1]);
  }

  const hostbench::LayerSummary s = hostbench::summarize(traced);
  const auto per_round = [&](auto f) {
    std::vector<double> v;
    for (size_t r = 0; r < bare_ms.size(); ++r) v.push_back(f(r));
    return median(v);
  };
  const double train_ms = median(bare_ms);
  const double trainer_overhead =
      per_round([&](size_t r) { return bare_ms[r] - off_ms[r]; });
  // train() ms/iter minus the spans' layer self times and the trainer
  // overhead, which per round reduces to the untraced shadow loop's ms/iter
  // minus the traced shadow loop's covered ms/iter.
  const double unaccounted_pct = per_round([&](size_t r) {
    const hostbench::LayerSummary one =
        hostbench::summarize(std::span(&traced[r], 1));
    return (off_ms[r] - one.covered_ms()) / bare_ms[r] * 100.0;
  });
  const double covered = s.covered_ms();
  const auto share = [&](double layer_ms) {
    return covered > 0.0 ? layer_ms / covered * 100.0 : 0.0;
  };
  const double wire = s.wire_bytes_per_iter;
  const double dense = static_cast<double>(traced.empty() ? 0 : traced[0].dense_bytes_per_iter);
  const double runs = static_cast<double>(traced.size());
  double msgs = 0.0, payload = 0.0;
  for (const hostbench::ShadowResult& d : traced) {
    msgs += static_cast<double>(d.comm_messages);
    payload += static_cast<double>(d.comm_payload_bytes);
  }
  const double per_iter = runs * static_cast<double>(iters_per_run);
  const std::string fb_note = std::to_string(s.forward_backward_ms.size()) +
                              " (rank, iteration) samples";
  out.metrics = {
      {"models.forward_backward_ms_p50", quantile(s.forward_backward_ms, 0.5),
       "ms", Provenance::Host, fb_note},
      {"models.forward_backward_ms_p90", quantile(s.forward_backward_ms, 0.9),
       "ms", Provenance::Host, fb_note},
      {"models.rank_skew_ms", median(s.rank_skew_ms), "ms", Provenance::Host,
       "median over " + std::to_string(s.rank_skew_ms.size()) + " iterations"},
      {"models.self_ms", s.models_ms(), "ms", Provenance::Host,
       "build + forward_backward + evaluate + join wait, per rank-iteration"},
      {"models.share_pct", share(s.models_ms()), "%", Provenance::Host, ""},
      {"core.submit_ms", s.submit_ms, "ms", Provenance::Host, ""},
      {"core.decompress_ms", s.decompress_ms, "ms", Provenance::Host,
       "thread CPU time"},
      {"core.share_pct", share(s.core_ms()), "%", Provenance::Host, ""},
      {"core.wire_bytes_per_iter", wire, "bytes", Provenance::Count, ""},
      {"core.compression_ratio", wire > 0.0 ? dense / wire : 0.0, "x",
       Provenance::Count, "dense fp32 bytes / wire bytes"},
      {"comm.collective_ms", s.collective_ms, "ms", Provenance::Host,
       "wait minus decompress, plus check_sync"},
      {"comm.share_pct", share(s.comm_ms()), "%", Provenance::Host, ""},
      {"comm.messages_per_iter", per_iter > 0 ? msgs / per_iter : 0.0,
       "count", Provenance::Count, "World counters, all ranks"},
      {"comm.payload_bytes_per_iter", per_iter > 0 ? payload / per_iter : 0.0,
       "bytes", Provenance::Count, "World counters, all ranks"},
      {"optim.apply_ms", s.apply_ms, "ms", Provenance::Host, ""},
      {"optim.share_pct", share(s.optim_ms()), "%", Provenance::Host, ""},
      {"runtime.pool_threads",
       static_cast<double>(runtime::num_threads()), "threads",
       Provenance::Count, ""},
      {"sim.train_ms_per_iter", train_ms, "ms", Provenance::Host,
       spread_note(bare_ms)},
      {"sim.trainer_overhead_ms", trainer_overhead, "ms", Provenance::Host,
       "train() minus the untraced shadow loop"},
      {"sim.observability_overhead_pct",
       per_round([&](size_t r) {
         return (observed_ms[r] / bare_ms[r] - 1.0) * 100.0;
       }),
       "%", Provenance::Host, "trace + metrics + critical_path vs bare"},
      {"trace.shadow_ms_per_iter", median(on_ms), "ms", Provenance::Host,
       spread_note(on_ms)},
      {"trace.overhead_pct",
       per_round([&](size_t r) { return (on_ms[r] / off_ms[r] - 1.0) * 100.0; }),
       "%", Provenance::Host, "spans on vs off"},
      {"trace.unaccounted_pct", unaccounted_pct, "%", Provenance::Host,
       "train() minus layer self times and trainer overhead"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: hostbench --workload <";
    for (const auto& w : hostbench::workloads()) std::cerr << w.name << "|";
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  const hostbench::WorkloadSpec* w = hostbench::find_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "hostbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  std::cout << "hostbench workload=" << w->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  std::cout << "provenance {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_threads\": " << grace::runtime::num_threads()
            << ", \"simd\": \""
            << grace::util::simd::level_name(
                   grace::util::simd::active_level())
            << "\", \"build_type\": \"" << HOSTBENCH_BUILD_TYPE
            << "\", \"ranks\": 4, \"global_batch\": 32"
            << ", \"host\": \"host wall clock\""
            << ", \"simulated\": \"cost model; measured codec seconds x0.3\""
            << ", \"count\": \"deterministic for the seed\"}\n";

  Outcome out;
  try {
    if (args.trace == 0) {
      run_end_to_end(*w, args, out);
    } else {
      run_traced(*w, args, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }

  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.correct = false;
    print_metric("metric", m);
  }
  for (const Metric& m : out.context) print_metric("context", m);
  out.correct = out.correct && out.failed == 0;
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << json_number(std::isfinite(m.value) ? m.value : 0.0)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return out.correct ? 0 : 1;
}
