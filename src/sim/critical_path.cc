#include "sim/critical_path.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "util/json.h"

namespace grace::sim {

const char* resource_name(Resource r) {
  switch (r) {
    case Resource::Compute: return "compute";
    case Resource::Codec: return "codec";
    case Resource::Link: return "link";
    case Resource::Optimizer: return "optimizer";
    case Resource::Stall: return "stall";
  }
  return "unknown";
}

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::InfiniteBandwidth: return "infinite_bandwidth";
    case Scenario::FreeCodec: return "free_codec";
    case Scenario::ZeroStall: return "zero_stall";
    case Scenario::PerfectOverlap: return "perfect_overlap";
  }
  return "unknown";
}

namespace {

// Backward walk of the critical chain through one rank's bucket schedule.
// Every stage start in schedule_buckets is a max() over its predecessors,
// so the chain from pipeline drain back to iteration start is found by
// following, at each stage, whichever predecessor the max() selected —
// comparing against the exact doubles the scheduler computed (max(a, b)
// returns a on ties, so ties are resolved by checking the first argument
// first). The chain partitions [0, exchange_end] into consecutive
// segments; each segment's duration is charged to its owning resource.
void walk_chain(std::span<const BucketTiming> timings,
                const BucketSchedule& bs, IterationAttribution& a) {
  // The last-finishing bucket roots the walk (first one on ties, matching
  // the std::max fold in schedule_buckets).
  size_t b = 0;
  while (bs.spans[b].end != bs.exchange_end) ++b;
  enum class Stage { Decompress, Comm, Compress };
  Stage stage = Stage::Decompress;
  while (true) {
    const BucketTiming& t = timings[b];
    const BucketSpan& s = bs.spans[b];
    // Stage ends exactly as the scheduler computed them.
    const double compress_end = s.compress_start + t.compress_s;
    const double comm_end = s.comm_start + t.comm_s;
    if (stage == Stage::Decompress) {
      a.codec_s += t.decompress_s;
      if (s.decompress_start == comm_end) {
        stage = Stage::Comm;
      } else if (b > 0) {
        --b;  // bound by the previous bucket's decompress drain
      } else {
        break;  // chain starts at t = 0
      }
    } else if (stage == Stage::Comm) {
      a.link_s += t.comm_s;
      if (s.comm_start == compress_end) {
        stage = Stage::Compress;
      } else if (b > 0) {
        --b;  // bound by the previous bucket's link occupancy
      } else {
        break;
      }
    } else {  // Stage::Compress
      a.codec_s += t.compress_s;
      if (s.compress_start == t.ready_s) {
        // Backward readiness ramp: the chain's root waited for this
        // bucket's gradients — device compute owns the prefix.
        a.compute_s += t.ready_s;
        break;
      }
      if (b > 0) {
        --b;  // bound by the previous bucket's codec-in stage
      } else {
        break;
      }
    }
  }
}

// Makes fl(prefix + *knob) == target exactly by a short ulp walk from the
// first-order guess, or reports that the target is unreachable for this
// prefix (round-to-even midpoint alignment — see close_ledger).
bool solve_final_addend(double prefix, double target, double* knob) {
  double x = target - prefix;
  if (!std::isfinite(x)) return false;
  for (int round = 0; round < 64; ++round) {
    const double total = prefix + x;
    if (total == target) {
      *knob = x;
      return true;
    }
    x = std::nextafter(
        x, total < target ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity());
  }
  return false;
}

Resource largest_category(const IterationAttribution& a) {
  Resource r = Resource::Compute;
  double best = a.compute_s;
  if (a.codec_s > best) { best = a.codec_s; r = Resource::Codec; }
  if (a.link_s > best) { best = a.link_s; r = Resource::Link; }
  if (a.optimizer_s > best) { best = a.optimizer_s; r = Resource::Optimizer; }
  if (a.stall_s > best) { best = a.stall_s; r = Resource::Stall; }
  return r;
}

}  // namespace

IterationAttribution attribute_iteration(const IterationCosts& costs,
                                         bool overlap) {
  IterationAttribution a;
  a.optimizer_s = costs.optimizer_s;
  a.stall_s = costs.stall_s;
  if (!overlap) {
    // Additive accounting: the categories are the phase sums, in the exact
    // association order the trainer priced the iteration with.
    a.compute_s = costs.compute_s;
    a.codec_s = costs.codec_s;
    a.link_s = costs.comm_s;
    a.iteration_s = additive_charge(costs.compute_s, costs.codec_s,
                                    costs.comm_s, costs.optimizer_s,
                                    costs.stall_s);
  } else {
    const BucketSchedule bs =
        schedule_buckets(costs.timings, costs.compute_s, /*overlap=*/true);
    const double pipe = bs.exchange_end;
    a.iteration_s = overlap_charge(pipe, costs.optimizer_s, costs.stall_s);
    if (bs.exchange_end <= costs.compute_s || costs.timings.empty()) {
      // Device compute outlasted the exchange pipeline (or the round was
      // skipped): compute owns the whole span.
      a.compute_s = pipe;
    } else {
      walk_chain(costs.timings, bs, a);
    }
  }
  // Regrouping the chain's interleaved segments into category sums can
  // reassociate floating-point additions; fold the ulp-scale residue back
  // in so the ledger closes bitwise.
  close_ledger(a);
  a.binding = largest_category(a);
  return a;
}

void close_ledger(IterationAttribution& a) {
  // Quick path: fold the residue into the largest chain category (the
  // binding resource absorbs the rounding). One step usually closes it.
  for (int round = 0; round < 4; ++round) {
    const double diff = a.iteration_s - a.attributed_total();
    if (diff == 0.0) return;
    double* fold = &a.compute_s;
    if (a.codec_s > *fold) fold = &a.codec_s;
    if (a.link_s > *fold) fold = &a.link_s;
    *fold += diff;
  }
  if (a.iteration_s == a.attributed_total()) return;
  // A sub-ulp correction to a large early addend can round away across
  // the rest of the fixed-order sum, leaving the quick path stuck one ulp
  // off. Solve on the final addend instead: attributed_total() is
  // monotone in stall_s with the other four fixed. One wrinkle: when the
  // real sum prefix + stall lands exactly on a rounding midpoint and
  // stall shares the total's binade, every walk step lands on another
  // midpoint, so round-half-to-even only ever produces even-mantissa
  // totals and an odd-mantissa target sits unreachable between two
  // neighbours. The escape is to perturb one of the earlier addends so
  // the prefix shifts off the midpoint-aligned residue: a nudge at the
  // addend's own fine granularity breaks an exact tie inside the prefix
  // chain (which otherwise pins the prefix to one parity class), and a
  // prefix-ulp-scale nudge moves the residue directly. Try both flavours
  // on each addend until the stall walk lands.
  const auto try_stall = [&a]() {
    const double prefix =
        (((a.compute_s + a.codec_s) + a.link_s) + a.optimizer_s);
    double stall = a.stall_s;
    if (!solve_final_addend(prefix, a.iteration_s, &stall)) return false;
    a.stall_s = stall;
    return true;
  };
  if (try_stall()) return;
  const double base =
      (((a.compute_s + a.codec_s) + a.link_s) + a.optimizer_s);
  const double coarse =
      std::nextafter(base, std::numeric_limits<double>::infinity()) - base;
  double* knobs[4] = {&a.optimizer_s, &a.codec_s, &a.link_s, &a.compute_s};
  for (double* knob : knobs) {
    const double saved = *knob;
    for (int k = 0; k < 8; ++k) {
      const int mag = k / 2 + 1;
      const bool up = k % 2 == 0;
      // Fine flavour: walk the knob by its own ulps.
      double fine = saved;
      for (int i = 0; i < mag; ++i) {
        fine = std::nextafter(
            fine, up ? std::numeric_limits<double>::infinity()
                     : -std::numeric_limits<double>::infinity());
      }
      if (fine >= 0.0) {
        *knob = fine;
        if (try_stall()) return;
      }
      // Coarse flavour: shift the knob by prefix-scale ulps.
      const double shifted =
          saved + (up ? 1.0 : -1.0) * static_cast<double>(mag) * coarse;
      if (shifted >= 0.0 && shifted != saved && shifted != fine) {
        *knob = shifted;
        if (try_stall()) return;
      }
    }
    *knob = saved;  // this knob never unlocked the walk; try the next one
  }
  // Every escape failed (not observed in practice); the ledger stays
  // best-effort within one ulp.
}

double reprice_iteration(
    const IterationCosts& costs,
    const std::vector<std::span<const BucketTiming>>& rank_timings,
    bool overlap, Scenario scenario) {
  const double stall = scenario == Scenario::ZeroStall ? 0.0 : costs.stall_s;
  const bool pipeline = overlap || scenario == Scenario::PerfectOverlap;
  if (!pipeline) {
    // Additive run, scalar scenario: re-price the additive sum.
    const double codec =
        scenario == Scenario::FreeCodec ? 0.0 : costs.codec_s;
    const double comm =
        scenario == Scenario::InfiniteBandwidth ? 0.0 : costs.comm_s;
    return additive_charge(costs.compute_s, codec, comm, costs.optimizer_s,
                           stall);
  }
  // Pipeline pricing: transform every rank's stage durations and let the
  // slowest re-priced rank bind, exactly as the trainer's overlap
  // accounting does. Ranks with no recorded buckets (skipped rounds)
  // contribute the compute floor.
  double max_pipe = costs.compute_s;
  std::vector<BucketTiming> tmp;
  for (const auto& timings : rank_timings) {
    tmp.assign(timings.begin(), timings.end());
    for (BucketTiming& t : tmp) {
      switch (scenario) {
        case Scenario::InfiniteBandwidth: t.comm_s = 0.0; break;
        case Scenario::FreeCodec:
          t.compress_s = 0.0;
          t.decompress_s = 0.0;
          break;
        case Scenario::PerfectOverlap: t.ready_s = 0.0; break;
        case Scenario::ZeroStall: break;
      }
    }
    const BucketSchedule bs =
        schedule_buckets(tmp, costs.compute_s, /*overlap=*/true);
    max_pipe = std::max(max_pipe, bs.exchange_end);
  }
  return overlap_charge(max_pipe, costs.optimizer_s, stall);
}

CriticalPathCollector::CriticalPathCollector(int n_ranks) : n_ranks_(n_ranks) {
  assert(n_ranks >= 1);
}

void CriticalPathCollector::add(
    const IterationCharge& charge, double optimizer_s,
    const std::vector<std::span<const BucketTiming>>& rank_timings,
    bool overlap) {
  // The binding-rank view of the charge; the re-derived iteration_s is
  // bitwise equal to the charge (same schedule inputs, same summation
  // order).
  IterationCosts costs;
  costs.compute_s = charge.compute_s;
  costs.codec_s = charge.codec_s();
  costs.comm_s = charge.comm_s;
  costs.optimizer_s = optimizer_s;
  costs.stall_s = charge.stall_s;
  if (charge.binding >= 0) {
    costs.timings = rank_timings[static_cast<size_t>(charge.binding)];
  }
  const IterationAttribution a = attribute_iteration(costs, overlap);
  sum_.compute_s += a.compute_s;
  sum_.codec_s += a.codec_s;
  sum_.link_s += a.link_s;
  sum_.optimizer_s += a.optimizer_s;
  sum_.stall_s += a.stall_s;
  sum_.iteration_s += a.iteration_s;
  ++summary_.bound_iters[static_cast<size_t>(a.binding)];
  summary_.per_iteration.push_back(a);
  for (size_t s = 0; s < kScenarios.size(); ++s) {
    whatif_sum_[s] +=
        reprice_iteration(costs, rank_timings, overlap, kScenarios[s]);
  }
}

CriticalPathSummary CriticalPathCollector::summary() const {
  CriticalPathSummary out = summary_;
  if (out.per_iteration.empty()) return out;
  out.collected = true;
  out.iterations = static_cast<int64_t>(out.per_iteration.size());
  const auto iters = static_cast<double>(out.iterations);
  IterationAttribution& mean = out.mean;
  mean.compute_s = sum_.compute_s / iters;
  mean.codec_s = sum_.codec_s / iters;
  mean.link_s = sum_.link_s / iters;
  mean.optimizer_s = sum_.optimizer_s / iters;
  mean.stall_s = sum_.stall_s / iters;
  // The iteration sum accumulated the charged seconds in iteration order,
  // so the mean matches RunResult::iteration_s exactly; fold the
  // category-rounding residue so the mean ledger closes too.
  mean.iteration_s = sum_.iteration_s / iters;
  close_ledger(mean);
  size_t top = 0;
  for (size_t r = 1; r < kNumResources; ++r) {
    if (out.bound_iters[r] > out.bound_iters[top]) top = r;
  }
  mean.binding = static_cast<Resource>(top);
  for (size_t s = 0; s < kScenarios.size(); ++s) {
    WhatIfResult w;
    w.name = scenario_name(kScenarios[s]);
    w.iteration_s = whatif_sum_[s] / iters;
    w.speedup = w.iteration_s > 0.0 ? mean.iteration_s / w.iteration_s : 1.0;
    out.what_ifs.push_back(std::move(w));
  }
  return out;
}

std::string critical_path_json(const CriticalPathSummary& s) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"collected\":" << (s.collected ? "true" : "false")
     << ",\"iterations\":" << s.iterations;
  os << ",\"attribution\":{";
  const std::pair<const char*, double> attribution[] = {
      {"compute_seconds", s.mean.compute_s},
      {"codec_seconds", s.mean.codec_s},
      {"link_seconds", s.mean.link_s},
      {"optimizer_seconds", s.mean.optimizer_s},
      {"stall_seconds", s.mean.stall_s},
      {"iteration_seconds", s.mean.iteration_s}};
  for (const auto& [name, value] : attribution) {
    os << '"' << name << "\":";
    util::json::append_number(os, value);
    os << ',';
  }
  os << "\"binding\":";
  util::json::append_escaped(os, resource_name(s.mean.binding));
  os << '}';
  os << ",\"bound_iterations\":{";
  for (size_t r = 0; r < kNumResources; ++r) {
    if (r) os << ',';
    util::json::append_escaped(os, resource_name(static_cast<Resource>(r)));
    os << ':' << s.bound_iters[r];
  }
  os << '}';
  os << ",\"what_if\":[";
  for (size_t i = 0; i < s.what_ifs.size(); ++i) {
    const WhatIfResult& w = s.what_ifs[i];
    if (i) os << ',';
    os << "{\"name\":";
    util::json::append_escaped(os, w.name);
    os << ",\"iteration_seconds\":";
    util::json::append_number(os, w.iteration_s);
    os << ",\"speedup\":";
    util::json::append_number(os, w.speedup);
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace grace::sim
