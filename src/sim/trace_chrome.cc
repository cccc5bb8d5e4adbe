#include "sim/trace_chrome.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/trace.h"
#include "util/json.h"

namespace grace::sim {
namespace {

using util::json::Number;

// One sample on a per-rank counter track ("ph":"C"). Wire bytes are
// cumulative; in-flight buckets are reconstructed from +1/-1 deltas.
struct CounterSample {
  double ts_us = 0.0;
  double value = 0.0;
};

void emit_counter_track(std::ostringstream& os, int rank,
                        const std::string& name, const char* arg,
                        std::vector<CounterSample>& samples, bool cumulative) {
  // Anchored bucket stages can start before earlier events ended, so the
  // sample order is not guaranteed chronological; stable sort keeps equal
  // timestamps in recording order (deterministic output).
  std::stable_sort(samples.begin(), samples.end(),
                   [](const CounterSample& a, const CounterSample& b) {
                     return a.ts_us < b.ts_us;
                   });
  double running = 0.0;
  for (const CounterSample& s : samples) {
    running = cumulative ? s.value : running + s.value;
    os << ",{\"ph\":\"C\",\"pid\":0,\"tid\":" << rank << ",\"name\":";
    util::json::append_escaped(os, name);
    os << ",\"ts\":" << Number{s.ts_us} << ",\"args\":{\"" << arg
       << "\":" << Number{running} << "}}";
  }
}

}  // namespace

std::string trace_chrome_json(const Trace& t) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Track-naming metadata: one process for the simulated job, one thread
  // per rank. thread_sort_index pins the numeric track order ("rank 10"
  // would otherwise sort lexically before "rank 2" in Perfetto).
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"grace-sim\"}}";
  for (int r = 0; r < t.n_ranks(); ++r) {
    os << ",{\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"rank " << r
       << "\"}}";
    os << ",{\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << r
       << "}}";
  }

  // Per-rank cursors: events within one rank are chronological, so a
  // complete event without a simulated placement starts where the previous
  // one on that track ended. Events that carry start_s (the per-bucket
  // exchange phases, sim/scheduler.h) are instead anchored at iteration
  // start + start_s — concurrent buckets then visibly overlap backward
  // compute — and the cursor only ever moves forward, so the sequential
  // tail (optimizer, fault) resumes after the pipeline drains.
  const size_t n_ranks = static_cast<size_t>(t.n_ranks());
  std::vector<double> cursor_us(n_ranks, 0.0);
  std::vector<double> iter_base_us(n_ranks, 0.0);
  std::vector<std::pair<int32_t, int32_t>> at_iter(
      n_ranks, {std::numeric_limits<int32_t>::min(), 0});
  // Counter tracks, collected while streaming the duration events: the
  // running total of wire bytes (sampled at each bucket's comm end) and
  // the number of in-flight buckets (+1 at compress start, -1 at
  // decompress end).
  std::vector<double> wire_total(n_ranks, 0.0);
  std::vector<std::vector<CounterSample>> wire_samples(n_ranks);
  std::vector<std::vector<CounterSample>> inflight_deltas(n_ranks);
  for (const TraceEvent& ev : t.events()) {
    const auto rank = static_cast<size_t>(ev.rank);
    if (at_iter[rank] != std::make_pair(ev.epoch, ev.iter)) {
      at_iter[rank] = {ev.epoch, ev.iter};
      iter_base_us[rank] = cursor_us[rank];
    }
    const double dur_us = ev.seconds * 1e6;
    const double ts_us = ev.start_s >= 0.0
                             ? iter_base_us[rank] + ev.start_s * 1e6
                             : cursor_us[rank];
    os << ",{\"ph\":\"X\",\"pid\":0,\"tid\":" << ev.rank << ",\"name\":";
    util::json::append_escaped(os, phase_name(ev.phase));
    os << ",\"cat\":";
    util::json::append_escaped(os, phase_name(ev.phase));
    os << ",\"ts\":" << Number{ts_us} << ",\"dur\":" << Number{dur_us}
       << ",\"args\":{\"epoch\":" << ev.epoch << ",\"iter\":" << ev.iter
       << ",\"tensor\":" << ev.tensor << ",\"bytes\":" << ev.bytes << "}}";
    cursor_us[rank] = std::max(cursor_us[rank], ts_us + dur_us);
    if (ev.tensor >= 0) {  // per-bucket exchange phases only
      if (ev.phase == Phase::Comm) {
        wire_total[rank] += static_cast<double>(ev.bytes);
        wire_samples[rank].push_back({ts_us + dur_us, wire_total[rank]});
      } else if (ev.phase == Phase::Compress) {
        inflight_deltas[rank].push_back({ts_us, 1.0});
      } else if (ev.phase == Phase::Decompress) {
        inflight_deltas[rank].push_back({ts_us + dur_us, -1.0});
      }
    }
  }

  // Per-rank counter names keep Perfetto from merging every rank into one
  // track (counter identity is (pid, name)).
  for (size_t r = 0; r < n_ranks; ++r) {
    const std::string tag = " (rank " + std::to_string(r) + ")";
    emit_counter_track(os, static_cast<int>(r), "wire_bytes" + tag, "bytes",
                       wire_samples[r], /*cumulative=*/true);
    emit_counter_track(os, static_cast<int>(r), "inflight_buckets" + tag,
                       "buckets", inflight_deltas[r], /*cumulative=*/false);
  }

  os << "]}";
  return os.str();
}

}  // namespace grace::sim
