#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/ops.h"

namespace grace::sim {

std::vector<BucketSpec> plan_buckets(std::span<const int64_t> numels,
                                     std::span<const std::string> names,
                                     size_t fusion_bytes) {
  if (numels.size() != names.size()) {
    throw std::invalid_argument(
        "plan_buckets: numels/names size mismatch (" +
        std::to_string(numels.size()) + " vs " + std::to_string(names.size()) +
        ")");
  }
  // One bucket per tensor in the worst case; ids are int32_t in the trace
  // schema, so reject plans the cast below would silently wrap.
  if (numels.size() > static_cast<size_t>(INT32_MAX)) {
    throw std::invalid_argument(
        "plan_buckets: too many tensors for int32_t bucket ids");
  }
  std::vector<BucketSpec> plan;
  const size_t n = numels.size();
  size_t at = 0;
  while (at < n) {
    BucketSpec b;
    b.id = static_cast<int32_t>(plan.size());
    b.first = at;
    b.count = 1;
    b.numel = numels[at];
    // Greedy fill: bytes are 4 per element (gradients are f32 on the wire
    // before compression). fusion_bytes == 0 never admits a second tensor.
    uint64_t bytes = static_cast<uint64_t>(b.numel) * 4;
    while (at + b.count < n) {
      const uint64_t next = static_cast<uint64_t>(numels[at + b.count]) * 4;
      if (bytes + next > fusion_bytes) break;
      bytes += next;
      b.numel += numels[at + b.count];
      ++b.count;
    }
    plan.push_back(std::move(b));
    at += plan.back().count;
  }
  for (BucketSpec& b : plan) {
    if (b.count == 1) {
      b.name = names[b.first];  // per-tensor: the tensor's own state key
    } else if (b.count == n) {
      b.name = "fused";  // legacy all-in-one fusion
    } else {
      b.name = "bucket" + std::to_string(b.id);
    }
  }
  return plan;
}

BucketSchedule schedule_buckets(std::span<const BucketTiming> buckets,
                                double compute_end_s, bool overlap) {
  BucketSchedule out;
  out.spans.resize(buckets.size());
  out.exchange_end = compute_end_s;
  out.additive_end = compute_end_s;
  double codec_in_free = 0.0;   // compress stage resource
  double link_free = 0.0;       // the simulated link
  double codec_out_free = 0.0;  // decompress stage resource
  for (size_t b = 0; b < buckets.size(); ++b) {
    const BucketTiming& t = buckets[b];
    BucketSpan& s = out.spans[b];
    if (overlap) {
      s.compress_start = std::max(t.ready_s, codec_in_free);
    } else {
      // Additive model: everything chains strictly after compute and after
      // the previous bucket's last stage.
      s.compress_start = std::max(compute_end_s, codec_out_free);
    }
    codec_in_free = s.compress_start + t.compress_s;
    s.comm_start = std::max(codec_in_free, link_free);
    link_free = s.comm_start + t.comm_s;
    s.decompress_start = std::max(link_free, codec_out_free);
    codec_out_free = s.decompress_start + t.decompress_s;
    s.end = codec_out_free;
    out.exchange_end = std::max(out.exchange_end, s.end);
    out.additive_end += t.compress_s + t.comm_s + t.decompress_s;
  }
  return out;
}

BucketTiming bucket_timing(const core::ExchangeStats& s, double ready_s,
                           double time_scale, double fixed_s,
                           double compute_scale) {
  BucketTiming t;
  t.ready_s = ready_s;
  t.compress_s = (s.compress_seconds * time_scale + fixed_s) * compute_scale;
  t.comm_s = s.comm_seconds;
  t.decompress_s = s.decompress_seconds * time_scale * compute_scale;
  return t;
}

double additive_charge(double compute_s, double codec_s, double comm_s,
                       double optimizer_s, double stall_s) {
  return (((compute_s + codec_s) + comm_s) + optimizer_s) + stall_s;
}

double overlap_charge(double pipe_s, double optimizer_s, double stall_s) {
  return (pipe_s + optimizer_s) + stall_s;
}

IterationClock iteration_clock(const TimeModel& time,
                               double fwd_flops_per_sample, int64_t batch,
                               bool compressing) {
  IterationClock c;
  c.compute_s = TimeModel::compute_seconds(fwd_flops_per_sample, batch);
  const double backward_share =
      TimeModel::kBackwardFactor / (1.0 + TimeModel::kBackwardFactor);
  c.forward_s = c.compute_s * (1.0 - backward_share);
  c.backward_s = c.compute_s * backward_share;
  c.time_scale = time.compression_time_scale;
  c.fixed_s = compressing ? TimeModel::kCompressionFixedPerTensor : 0.0;
  c.overlap = time.overlap;
  return c;
}

void price_rank(std::span<const core::ExchangeStats> stats,
                std::span<const BucketSpec> plan, const IterationClock& clock,
                double compute_scale, double stall_s, RankPrice& out) {
  assert(stats.empty() || stats.size() == plan.size());
  // Scaling by exactly 1.0 (a uniform fleet) is bitwise identity.
  const double compute_s = clock.compute_s * compute_scale;
  out.forward_s = clock.forward_s * compute_scale;
  out.backward_s = clock.backward_s * compute_scale;
  int64_t total_numel = 0;
  for (const BucketSpec& b : plan) total_numel += b.numel;
  out.total = core::ExchangeStats{};
  out.timings.resize(stats.size());
  int64_t ready_numel = 0;
  for (size_t b = 0; b < stats.size(); ++b) {
    ready_numel += plan[b].numel;
    const double ready_fraction =
        total_numel <= 0 ? 1.0
                         : static_cast<double>(ready_numel) /
                               static_cast<double>(total_numel);
    const double ready_s = out.forward_s + out.backward_s * ready_fraction;
    out.timings[b] = bucket_timing(stats[b], ready_s, clock.time_scale,
                                   clock.fixed_s, compute_scale);
    out.total += stats[b];
  }
  out.schedule = schedule_buckets(out.timings, compute_s, clock.overlap);
  const BucketTiming iter = bucket_timing(
      out.total, 0.0, clock.time_scale,
      clock.fixed_s * static_cast<double>(plan.size()), compute_scale);
  out.costs = {compute_s,   iter.compress_s, iter.decompress_s,
               iter.comm_s, stall_s,         out.schedule.exchange_end};
}

IterationCharge charge_iteration(std::span<const RankCosts> alive,
                                 double optimizer_s, bool overlap) {
  IterationCharge c;
  for (size_t r = 0; r < alive.size(); ++r) {
    const RankCosts& k = alive[r];
    c.compute_s = std::max(c.compute_s, k.compute_s);
    if (k.compress_s + k.decompress_s >= c.codec_s()) {
      c.compress_s = k.compress_s;
      c.decompress_s = k.decompress_s;
    }
    c.stall_s = std::max(c.stall_s, k.stall_s);
    if (overlap && (k.pipe_s > c.pipe_s || c.binding < 0)) {
      c.pipe_s = k.pipe_s;
      c.binding = static_cast<int>(r);
    }
  }
  if (!alive.empty()) c.comm_s = alive.front().comm_s;
  c.additive_s = additive_charge(c.compute_s, c.codec_s(), c.comm_s,
                                 optimizer_s, c.stall_s);
  c.iteration_s = overlap ? overlap_charge(c.pipe_s, optimizer_s, c.stall_s)
                          : c.additive_s;
  return c;
}

ExchangeScheduler::ExchangeScheduler(std::deque<nn::Parameter>& params,
                                     size_t fusion_bytes)
    : params_(&params) {
  std::vector<int64_t> numels;
  std::vector<std::string> names;
  numels.reserve(params.size());
  names.reserve(params.size());
  for (const nn::Parameter& p : params) {
    numels.push_back(p.value->grad.numel());
    names.push_back(p.name);
  }
  plan_ = plan_buckets(numels, names, fusion_bytes);
  staging_.resize(plan_.size());
  storage_out_.assign(plan_.size(), 0);
  for (const BucketSpec& b : plan_) {
    if (b.count > 1) staging_[static_cast<size_t>(b.id)] = Tensor::zeros(Shape{{b.numel}});
    total_numel_ += b.numel;
  }
}

Tensor& ExchangeScheduler::pack(size_t b) {
  const BucketSpec& spec = plan_.at(b);
  if (storage_out_[b]) {
    throw std::logic_error("exchange scheduler: bucket '" + spec.name +
                           "' is read while its storage is out");
  }
  if (spec.count == 1) return (*params_)[spec.first].value->grad;
  Tensor& buf = staging_[b];
  auto flat = buf.f32();
  size_t at = 0;
  for (size_t i = spec.first; i < spec.first + spec.count; ++i) {
    const Tensor& g = (*params_)[i].value->grad;
    ops::copy(flat.subspan(at, static_cast<size_t>(g.numel())), g.f32());
    at += static_cast<size_t>(g.numel());
  }
  return buf;
}

core::ExchangeHandle ExchangeScheduler::submit_bucket(core::GraceWorker& w,
                                                      size_t b,
                                                      bool instrument) {
  const BucketSpec& spec = plan_.at(b);
  Tensor& storage = pack(b);
  core::ExchangeHandle h = w.submit(std::move(storage), spec.name, instrument);
  // A compressor that keeps the storage as its part leaves it empty.
  storage_out_[b] = storage.empty();
  return h;
}

void ExchangeScheduler::apply_bucket(size_t b, Tensor aggregated,
                                     const ApplyFn& apply) {
  const BucketSpec& spec = plan_.at(b);
  // A compressor's decompress decides the aggregate's size; each slot
  // below reads its own span of it.
  if (aggregated.numel() != spec.numel) {
    throw std::runtime_error("apply_bucket: bucket '" + spec.name +
                             "' aggregate holds " +
                             std::to_string(aggregated.numel()) +
                             " elements, the bucket " +
                             std::to_string(spec.numel));
  }
  auto agg = aggregated.f32();
  size_t at = 0;
  for (size_t i = spec.first; i < spec.first + spec.count; ++i) {
    nn::Parameter& p = (*params_)[i];
    const auto len = static_cast<size_t>(p.value->data.numel());
    apply(i, p.value->data.f32(), agg.subspan(at, len));
    at += len;
  }
  if (storage_out_[b]) {
    nn::Node& first = *(*params_)[spec.first].value;
    const bool single = spec.count == 1;
    aggregated.set_shape(single ? first.data.shape() : Shape{{spec.numel}});
    (single ? first.grad : staging_[b]) = std::move(aggregated);
    storage_out_[b] = 0;
  }
}

void ExchangeScheduler::absorb_all(core::GraceWorker& w) {
  for (size_t b = 0; b < plan_.size(); ++b) {
    w.absorb(pack(b), plan_[b].name);
  }
}

core::ExchangeHandle ExchangeScheduler::submit_bucket_zero(
    core::GraceWorker& w, size_t b, bool instrument) {
  const BucketSpec& spec = plan_.at(b);
  const Tensor& real = pack(b);
  w.absorb(real, spec.name);
  // submit_raw: a normal submit would compensate the zeros with beta*m —
  // shipping the residual we just deposited — and then wipe the residual.
  return w.submit_raw(Tensor::zeros_like(real), spec.name, instrument);
}

}  // namespace grace::sim
