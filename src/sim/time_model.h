// Hybrid time accounting for one training iteration (DESIGN.md §1):
//   compute   — simulated: analytic FLOPs / simulated accelerator rate
//   compress  — measured: thread-CPU time of the real kernels, scaled by a
//               calibration factor between this host CPU and the testbed
//   comm      — simulated: NetworkModel alpha-beta cost of the collectives
#pragma once

#include <cstdint>

namespace grace::sim {

struct TimeModel {
  // Effective fp32 rate of the simulated accelerator, chosen so that model
  // compute : communication ratios land in the same regimes as the
  // paper's V100 + 10 Gbps testbed (see DESIGN.md).
  static constexpr double kDeviceFlops = 4e9;
  // Backward pass costs ~2x the forward pass.
  static constexpr double kBackwardFactor = 2.0;
  // Fixed per-gradient-tensor cost of invoking the compression pipeline
  // (framework dispatch, kernel launches, device-host transfers — the
  // costs §V-D of the paper profiles). Charged once per tensor per
  // iteration whenever a non-identity compressor runs.
  static constexpr double kCompressionFixedPerTensor = 120e-6;
  // Optimizer update cost per parameter element (a handful of fused
  // reads/multiply-adds/writes on the simulated device). Charged once per
  // iteration so the optimizer phase participates in the per-phase
  // accounting; the share is tiny relative to forward+backward.
  static constexpr double kOptimizerFlopsPerParam = 4.0;

  // Calibration between this host CPU and the testbed CPU for the measured
  // compression kernels (1.0 = charge host CPU time as-is).
  double compression_time_scale = 1.0;
  // Compute-communication overlap (sim/scheduler.h, DESIGN.md §7a). When
  // true, the iteration time comes from the per-rank exchange timeline: a
  // bucket's compression starts as soon as its gradients are ready during
  // backward, bucket communication overlaps the backward tail of
  // not-yet-ready buckets, and concurrent buckets serialize on the
  // simulated link. When false (the default) the legacy additive
  // accounting applies — compute + codec + comm + optimizer + stall — and
  // the phase breakdown sums exactly to the iteration time.
  bool overlap = false;

  static double compute_seconds(double fwd_flops_per_sample, int64_t batch) {
    return fwd_flops_per_sample * (1.0 + kBackwardFactor) *
           static_cast<double>(batch) / kDeviceFlops;
  }

  static double optimizer_seconds(int64_t params) {
    return kOptimizerFlopsPerParam * static_cast<double>(params) /
           kDeviceFlops;
  }
};

}  // namespace grace::sim
