// Bucketed exchange scheduling (DESIGN.md §7a). Two pieces:
//
// 1. ExchangeScheduler — packs gradient tensors, in gradient-ready order,
//    into size-capped fusion buckets (Horovod-style threshold,
//    TrainConfig::fusion_bytes) and drives each bucket through the
//    GraceWorker submit/wait pipeline. fusion_bytes = 0 degenerates to the
//    per-tensor path (one bucket per tensor, compressed under its own name
//    and shape); fusion_bytes = SIZE_MAX degenerates to all-in-one fusion
//    (a single flat "fused" bucket). Both legacy trainer modes are thereby
//    endpoints of one code path.
//
// 2. schedule_buckets — the per-rank simulated exchange timeline. The
//    additive cost model (compute, then codec, then comm, summed) becomes
//    an event-driven three-stage pipeline: a bucket's compression may start
//    as soon as its gradients are ready during backward, buckets then
//    serialize on the rank's codec resource and on the simulated link
//    (network occupancy is tracked — concurrent buckets queue on the link,
//    they never magically parallelize), and decompression drains in
//    completion order. With overlap disabled the same function reproduces
//    the legacy additive accounting exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/grace_world.h"
#include "nn/module.h"
#include "sim/time_model.h"

namespace grace::sim {

// One fusion bucket: a contiguous run of gradient tensors exchanged as a
// single compress/communicate/decompress round. `name` keys the
// compressor's and error-feedback's per-tensor state, so it must be stable
// across iterations and identical on every rank:
//   - single-tensor buckets use the tensor's own name (and original shape),
//   - the bucket covering every tensor at once is named "fused",
//   - any other multi-tensor bucket is named "bucket<id>".
// Shape-aware compressors (topk, dgc, powersgd, ...) therefore act on the
// bucket as one flat vector: selection/factorization is bucket-global, the
// same semantics legacy all-in-one fusion had, now at bucket granularity.
struct BucketSpec {
  int32_t id = 0;      // stable slot id (trace events, ExchangeStats)
  std::string name;    // compressor/EF state key
  size_t first = 0;    // index of the bucket's first tensor
  size_t count = 0;    // number of tensors in the bucket
  int64_t numel = 0;   // total elements across the bucket's tensors
};

// Deterministic greedy packing: walk tensors in gradient-ready order and
// close a bucket when adding the next tensor would exceed `fusion_bytes`
// (4 bytes per element). A tensor larger than the cap forms its own
// bucket; a bucket always holds at least one tensor. Pure function of
// (numels, names, fusion_bytes), so every rank computes the same plan.
std::vector<BucketSpec> plan_buckets(std::span<const int64_t> numels,
                                     std::span<const std::string> names,
                                     size_t fusion_bytes);

// Per-bucket stage durations feeding the timeline, in bucket issue order.
struct BucketTiming {
  double ready_s = 0.0;       // when the bucket's last gradient is ready
  double compress_s = 0.0;    // codec-in stage (measured, scaled, + fixed)
  double comm_s = 0.0;        // link occupancy (simulated collective time)
  double decompress_s = 0.0;  // codec-out stage
};

// Where each bucket's stages landed on the simulated timeline (absolute
// seconds from iteration start).
struct BucketSpan {
  double compress_start = 0.0;
  double comm_start = 0.0;
  double decompress_start = 0.0;
  double end = 0.0;  // decompress completion
};

struct BucketSchedule {
  std::vector<BucketSpan> spans;
  // The pipeline drain: the last bucket's decompress completion, never
  // earlier than compute_end_s (a rank whose exchange hides under compute
  // drains when compute ends).
  double exchange_end = 0.0;
  // What the legacy additive model charges for the same inputs:
  // compute_end + sum(compress + comm + decompress). exchange_end never
  // exceeds this under overlap, and equals it with overlap off.
  double additive_end = 0.0;
};

// Simulate one iteration's exchange pipeline. With `overlap` on, the three
// stages chain per bucket b (in issue order):
//   compress_start[b] = max(ready[b],          compress_end[b-1])
//   comm_start[b]     = max(compress_end[b],   comm_end[b-1])      // link
//   decompress_start[b] = max(comm_end[b],     decompress_end[b-1])
// With `overlap` off, every stage of bucket b starts where bucket b-1's
// stages ended, chained after compute_end_s — the additive model.
BucketSchedule schedule_buckets(std::span<const BucketTiming> buckets,
                                double compute_end_s, bool overlap);

// Iteration pricing, shared by train(), simulate_scale and the critical
// path so both worlds charge the same costs the same way.
//
// bucket_timing: measured codec seconds times `time_scale`
// (TimeModel::compression_time_scale), plus `fixed_s` dispatch overhead on
// compress, both stretched by the rank's fleet `compute_scale`.
BucketTiming bucket_timing(const core::ExchangeStats& s, double ready_s,
                           double time_scale, double fixed_s,
                           double compute_scale);
// The two accountings, in the one association order every caller uses.
double additive_charge(double compute_s, double codec_s, double comm_s,
                       double optimizer_s, double stall_s);
double overlap_charge(double pipe_s, double optimizer_s, double stall_s);

// The simulated clock of one iteration (TimeModel) before any rank's fleet
// stretch: device compute split into its forward and backward shares, and
// the codec clock.
struct IterationClock {
  double compute_s = 0.0;
  double forward_s = 0.0;
  double backward_s = 0.0;
  double time_scale = 1.0;  // TimeModel::compression_time_scale
  double fixed_s = 0.0;     // dispatch overhead per bucket (0 uncompressed)
  bool overlap = false;     // TimeModel::overlap
};
// `compressing`: whether any compressor the run may route a bucket to is
// not "none" (only then is the per-bucket dispatch overhead charged).
IterationClock iteration_clock(const TimeModel& time,
                               double fwd_flops_per_sample, int64_t batch,
                               bool compressing);

// One alive rank's simulated costs for one iteration.
struct RankCosts {
  double compute_s = 0.0;
  double compress_s = 0.0;
  double decompress_s = 0.0;
  double comm_s = 0.0;
  double stall_s = 0.0;
  double pipe_s = 0.0;  // pipeline drain (overlap accounting)
};

// One rank's priced iteration.
struct RankPrice {
  RankCosts costs;
  double forward_s = 0.0;             // costs.compute_s's forward share
  double backward_s = 0.0;            // and its backward share
  core::ExchangeStats total;          // the per-bucket stats, summed
  std::vector<BucketTiming> timings;  // per exchanged bucket, fleet-stretched
  BucketSchedule schedule;            // where those buckets landed
};

// The per-rank pricer train() and simulate_scale share. `stats` holds the
// rank's per-bucket exchange stats in plan order, or nothing for a round
// that exchanged nothing. Bucket b is ready once the backward pass has
// produced its gradients: the plan's cumulative numel share through b (the
// simulated backward emits gradients in pack order at a uniform element
// rate). The buckets are laid out on the rank's timeline with
// schedule_buckets, whose drain is the rank's pipeline; the summed stats,
// priced like one bucket carrying every bucket's dispatch overhead, give
// its codec and comm costs. Device and codec seconds stretch by the rank's
// `compute_scale`. Reuses `out`'s buffers.
void price_rank(std::span<const core::ExchangeStats> stats,
                std::span<const BucketSpec> plan, const IterationClock& clock,
                double compute_scale, double stall_s, RankPrice& out);

// The charged iteration and the costs it was charged for: the slowest
// compute, stall and pipeline, the codec split of the rank with the
// largest codec overhead (the later rank on ties), rank 0's comm, and the
// binding pipeline's index into the ranks (overlap only, the first on
// ties; -1 otherwise).
struct IterationCharge : RankCosts {
  double iteration_s = 0.0;
  double additive_s = 0.0;
  int binding = -1;
  double codec_s() const { return compress_s + decompress_s; }
};
// Folds the alive ranks' costs, in ascending rank order, into the charge.
IterationCharge charge_iteration(std::span<const RankCosts> alive,
                                 double optimizer_s, bool overlap);

// Drives one worker's per-iteration gradient exchange through the bucket
// plan. One instance per worker (owns the staging buffers for multi-tensor
// buckets); the parameter deque must outlive the scheduler.
class ExchangeScheduler {
 public:
  ExchangeScheduler(std::deque<nn::Parameter>& params, size_t fusion_bytes);

  const std::vector<BucketSpec>& buckets() const { return plan_; }
  size_t n_buckets() const { return plan_.size(); }
  int64_t total_numel() const { return total_numel_; }

  // Stage bucket b's gradients (multi-tensor buckets copy into the staging
  // buffer; single-tensor buckets submit the parameter's gradient itself)
  // and hand that storage to the worker's submit. Call for b =
  // 0..n_buckets()-1 in order. When the worker ships the storage (none
  // with error feedback off and no probe), the bucket's storage is out
  // until apply_bucket(b) returns one: submitting, absorbing or zeroing
  // the bucket meanwhile throws std::logic_error.
  core::ExchangeHandle submit_bucket(core::GraceWorker& w, size_t b,
                                     bool instrument);

  // Scatter a completed bucket's aggregate back to its tensors:
  // apply(slot, param_values, aggregated_gradient) per tensor, where slot
  // is the tensor's global parameter index. Throws std::runtime_error,
  // naming the bucket, unless the aggregate holds the bucket's numel. When
  // the bucket's storage is out, the aggregate then becomes that storage
  // (the parameter's gradient, shaped like the parameter, or the staging
  // buffer) for the next backward, which overwrites it after zero_grad.
  using ApplyFn = std::function<void(size_t slot, std::span<float> param,
                                     std::span<const float> grad)>;
  void apply_bucket(size_t b, Tensor aggregated, const ApplyFn& apply);

  // Degraded round (docs/RESILIENCE.md): fold every bucket's gradients into
  // the worker's error-feedback residual instead of exchanging, at the same
  // bucket granularity a healthy round would have used.
  void absorb_all(core::GraceWorker& w);

  // Partial participation (docs/RESILIENCE.md): this rank sits the round
  // out. Absorb bucket b's real gradient into the error-feedback residual,
  // then submit an all-zero payload in its place via submit_raw, keeping
  // the collective in lockstep while contributing nothing to the aggregate.
  core::ExchangeHandle submit_bucket_zero(core::GraceWorker& w, size_t b,
                                          bool instrument);

 private:
  // Bucket b's storage, its gradients packed in. Throws std::logic_error
  // while that storage is out.
  Tensor& pack(size_t b);

  std::deque<nn::Parameter>* params_;
  std::vector<BucketSpec> plan_;
  std::vector<Tensor> staging_;  // per bucket; empty for single-tensor
  std::vector<char> storage_out_;  // per bucket: shipped by submit_bucket
  int64_t total_numel_ = 0;
};

}  // namespace grace::sim
