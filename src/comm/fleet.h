// Per-rank link/compute heterogeneity (docs/RESILIENCE.md §fleet).
//
// A FleetProfile owns one LinkProfile per physical rank: multipliers on the
// base NetworkModel's bandwidth and latency plus a compute-scale factor the
// simulated time model applies to forward/backward/codec seconds. The wire
// *volume* closed forms (comm/topology.h WireVolume) are speed-independent,
// so a heterogeneous fleet never changes message or byte counters — only
// seconds. A default-constructed (empty) FleetProfile means "uniform fleet":
// every consumer must return bit-identical numbers to the pre-fleet code in
// that case, which is why bottleneck() hands back the base NetworkModel
// object unchanged rather than multiplying by 1.0.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/network_model.h"

namespace grace::comm {

struct LinkProfile {
  double bandwidth_scale = 1.0;  // multiplies NetworkModel::bandwidth_gbps
  double latency_scale = 1.0;    // multiplies NetworkModel::latency_us
  double compute_scale = 1.0;    // multiplies simulated compute/codec seconds

  bool is_uniform() const {
    return bandwidth_scale == 1.0 && latency_scale == 1.0 &&
           compute_scale == 1.0;
  }
};

class FleetProfile {
 public:
  FleetProfile() = default;  // uniform fleet of any size
  explicit FleetProfile(std::vector<LinkProfile> ranks,
                        std::string name = "custom");

  // True when the profile imposes no heterogeneity (default-constructed, or
  // every per-rank profile is exactly 1.0/1.0/1.0). Consumers gate all new
  // arithmetic on this so uniform fleets stay bit-identical.
  bool uniform() const { return uniform_; }
  const std::string& name() const { return name_; }

  // Ranks beyond the profile (and every rank of an empty one) are uniform.
  const LinkProfile& rank(int r) const;
  double compute_scale(int r) const { return rank(r).compute_scale; }

  // Throws std::invalid_argument on non-finite / non-positive scales or when
  // a non-empty profile is smaller than the world it is asked to price.
  void validate(int n_workers) const;

  // Effective NetworkModel for collectives over the member set `alive`
  // (empty span = all of [0, net.n_workers)). Collectives run at the pace of
  // the slowest member link, so bandwidth takes the min scale and latency
  // the max scale over members. Uniform fleets return `net` unchanged.
  NetworkModel bottleneck(const NetworkModel& net,
                          std::span<const int> alive = {}) const;

  // Slowest member's compute multiplier (1.0 for uniform fleets).
  double max_compute_scale(std::span<const int> alive = {}) const;

  // Named scenario fleets (bench_resilience matrix; README knobs).
  static FleetProfile datacenter(int n);
  static FleetProfile flaky_wan(int n, uint64_t seed = 1);
  static FleetProfile federated_edge(int n, uint64_t seed = 1);

 private:
  std::vector<LinkProfile> ranks_;
  std::string name_ = "uniform";
  bool uniform_ = true;
};

}  // namespace grace::comm
