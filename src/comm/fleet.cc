#include "comm/fleet.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace grace::comm {

namespace {

// Seeded draws use the same splitmix64 construction as faults::FaultPlan so
// fleet generation is replayable from (seed, rank) alone. Kept local: comm
// must not depend on faults.
uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

uint64_t draw(uint64_t seed, uint64_t domain, uint64_t a) {
  return mix(mix(mix(seed ^ 0x66c6ee5ull) ^ domain) ^ a);
}

constexpr uint64_t kDomainWan = 0xf1ee7503;
constexpr uint64_t kDomainEdge = 0xf1ee7504;

void check_scale(const char* what, double v) {
  if (!std::isfinite(v) || v <= 0.0) {
    throw std::invalid_argument(std::string("FleetProfile: ") + what +
                                " must be finite and > 0, got " +
                                std::to_string(v));
  }
}

}  // namespace

FleetProfile::FleetProfile(std::vector<LinkProfile> ranks, std::string name)
    : ranks_(std::move(ranks)), name_(std::move(name)) {
  uniform_ = true;
  for (const LinkProfile& p : ranks_) {
    check_scale("bandwidth_scale", p.bandwidth_scale);
    check_scale("latency_scale", p.latency_scale);
    check_scale("compute_scale", p.compute_scale);
    if (!p.is_uniform()) uniform_ = false;
  }
}

const LinkProfile& FleetProfile::rank(int r) const {
  static const LinkProfile kUniform{};
  if (r < 0 || static_cast<size_t>(r) >= ranks_.size()) return kUniform;
  return ranks_[static_cast<size_t>(r)];
}

void FleetProfile::validate(int n_workers) const {
  if (!ranks_.empty() && ranks_.size() < static_cast<size_t>(n_workers)) {
    throw std::invalid_argument(
        "FleetProfile '" + name_ + "' has " + std::to_string(ranks_.size()) +
        " rank profiles but the world has " + std::to_string(n_workers) +
        " workers; size the fleet to cover every rank (or leave it empty "
        "for a uniform fleet)");
  }
}

NetworkModel FleetProfile::bottleneck(const NetworkModel& net,
                                      std::span<const int> alive) const {
  if (uniform_) return net;
  double min_bw = 1.0;
  double max_lat = 1.0;
  auto fold = [&](int r) {
    const LinkProfile& p = rank(r);
    min_bw = std::min(min_bw, p.bandwidth_scale);
    max_lat = std::max(max_lat, p.latency_scale);
  };
  if (alive.empty()) {
    for (int r = 0; r < net.n_workers; ++r) fold(r);
  } else {
    for (int r : alive) fold(r);
  }
  if (min_bw == 1.0 && max_lat == 1.0) return net;  // members are all uniform
  NetworkModel out = net;
  out.bandwidth_gbps = net.bandwidth_gbps * min_bw;
  out.latency_us = net.latency_us * max_lat;
  return out;
}

double FleetProfile::max_compute_scale(std::span<const int> alive) const {
  if (uniform_) return 1.0;
  double out = 1.0;
  if (alive.empty()) {
    for (const LinkProfile& p : ranks_) out = std::max(out, p.compute_scale);
  } else {
    for (int r : alive) out = std::max(out, rank(r).compute_scale);
  }
  return out;
}

FleetProfile FleetProfile::datacenter(int n) {
  // Homogeneous fast racks: explicitly sized but uniform, so every consumer
  // takes its bit-identical fast path.
  return FleetProfile(std::vector<LinkProfile>(static_cast<size_t>(n)),
                      "datacenter");
}

FleetProfile FleetProfile::flaky_wan(int n, uint64_t seed) {
  // Cross-site links: every non-root rank pays 4x latency; a third of them
  // additionally sit behind a half-bandwidth WAN hop.
  std::vector<LinkProfile> ranks(static_cast<size_t>(n));
  for (int r = 1; r < n; ++r) {
    LinkProfile& p = ranks[static_cast<size_t>(r)];
    p.latency_scale = 4.0;
    if (unit(draw(seed, kDomainWan, static_cast<uint64_t>(r))) < 1.0 / 3.0) {
      p.bandwidth_scale = 0.5;
    }
  }
  return FleetProfile(std::move(ranks), "flaky-wan");
}

FleetProfile FleetProfile::federated_edge(int n, uint64_t seed) {
  // Edge devices: everyone but the coordinator is compute-poor (2-5x slower)
  // on a thin high-latency uplink.
  std::vector<LinkProfile> ranks(static_cast<size_t>(n));
  for (int r = 1; r < n; ++r) {
    LinkProfile& p = ranks[static_cast<size_t>(r)];
    p.bandwidth_scale = 0.1;
    p.latency_scale = 10.0;
    const double u = unit(draw(seed, kDomainEdge, static_cast<uint64_t>(r)));
    p.compute_scale = 2.0 + 3.0 * u;
  }
  return FleetProfile(std::move(ranks), "federated-edge");
}

}  // namespace grace::comm
