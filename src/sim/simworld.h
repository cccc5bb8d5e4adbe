// Large-scale simulated worlds (DESIGN.md §10).
//
// The thread-backed trainer (sim/trainer.h) runs one real thread per rank,
// which caps worlds at roughly the host's core count. simulate_scale drives
// the same per-iteration model — the bucket plan, the measured codec costs,
// the 3-resource exchange timeline and the topology cost formulas — for
// fleets of hundreds to thousands of ranks using ONE real replica, and
// prices it with the per-rank pricer train() prices every rank with after
// its join (price_rank + charge_iteration, sim/scheduler.h). With a zeroed
// codec clock, a uniform fleet and no faults, every train() iteration's
// charge equals iteration_s bitwise (pinned per iteration in
// tests/test_simworld.cc):
//
//   * One probe rank runs a real forward/backward and submits every fusion
//     bucket through a real GraceWorker (submit() touches no communication),
//     so compression cost, decompression cost, logical wire size, and the
//     physical serialized blob size are all measured, not modeled.
//   * Communication is priced by the TopologyModel's *_seconds formulas and
//     counted by its *_volume formulas. For size-deterministic compressors
//     (none, topk, qsgd, signsgd, ... — anything whose payload size depends
//     only on tensor shape), the closed-form message/byte totals equal the
//     thread-backed World's atomic counters EXACTLY for the same config;
//     tests/test_simworld.cc pins that equivalence. Value-dependent sizes
//     (dgc's threshold selection, adaptive sparsifiers) make the totals a
//     one-rank-sample estimate instead.
//
// TrainConfig fields that govern learning dynamics (optimizer, lr decay,
// faults, probes) are ignored: the simulated world answers performance
// questions (time per iteration, bytes on the wire, topology trade-offs),
// not accuracy questions. check_sync volume IS counted — the thread-backed
// trainer's per-epoch sync allreduce is real traffic.
#pragma once

#include <cstdint>
#include <string>

#include "sim/trainer.h"

namespace grace::sim {

struct ScaleResult {
  std::string model;
  std::string compressor;
  std::string topology;  // comm::TopologyConfig::to_string()
  // Fleet heterogeneity summary (comm/fleet.h): the profile's name and the
  // slowest member's compute multiplier the iteration was priced at.
  // "uniform" / 1.0 for the default fleet — which also leaves every other
  // field bit-identical to the pre-fleet figures.
  std::string fleet = "uniform";
  double fleet_max_compute_scale = 1.0;
  int n_workers = 0;
  int epochs = 0;
  int64_t iters_per_epoch = 0;
  int64_t buckets_per_iter = 0;

  // Mean per-iteration seconds by phase (same accounting as RunResult:
  // compute and optimizer simulated, codec measured-and-scaled, comm from
  // the topology cost model).
  double compute_s = 0.0;
  double compress_s = 0.0;
  double comm_s = 0.0;
  double decompress_s = 0.0;
  double optimizer_s = 0.0;

  // Simulated iteration time: the scheduler timeline's critical path under
  // TimeModel::overlap, the additive sum otherwise. additive_iteration_s
  // always carries the additive figure for comparison.
  double iteration_s = 0.0;
  double additive_iteration_s = 0.0;
  double overlap_saved_s = 0.0;

  double total_sim_seconds = 0.0;   // iteration_s * epochs * iters_per_epoch
  double throughput = 0.0;          // global samples / simulated second

  // Logical compressed payload bytes one rank submits per iteration.
  uint64_t wire_bytes_per_iter = 0;

  // Closed-form physical transport totals for the whole run, all ranks and
  // collective internals included (per-epoch check_sync allreduce too) —
  // the quantities World::messages_sent() / payload_bytes_sent() count in
  // a thread-backed run of the same config.
  uint64_t comm_messages = 0;
  uint64_t comm_payload_bytes = 0;
};

// Simulates cfg.epochs of training over cfg.n_workers ranks without
// spawning threads. cfg.net.n_workers is overridden with cfg.n_workers (a
// fleet-scale run prices the fleet it simulates). Throws
// std::invalid_argument on invalid network/topology parameters.
ScaleResult simulate_scale(const ReplicaFactory& factory,
                           const TrainConfig& cfg);

// Flat JSON object, one line, same idiom as run_result_json.
std::string scale_result_json(const ScaleResult& r);

}  // namespace grace::sim
