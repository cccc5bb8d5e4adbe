#include "core/grace_world.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <stdexcept>
#include <utility>

#include "core/registry.h"
#include "tensor/ops.h"

namespace grace::core {
namespace {

// Per-thread CPU time: worker threads time-share cores, so wall clock would
// attribute scheduler gaps to compression. CPU time measures the kernels'
// real cost regardless of contention.
double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Agg in Algorithm 1, streamed over the gathered frames: peer 0's payload
// is decompressed into the accumulator, every later peer in rank order goes
// through decompress_add, and one scale by 1/n makes the mean. That fixed
// order and per-element expression give every rank, and both gather paths,
// the same bits. frames[local_rank] is not read: the local payload is used
// as is. Deserialize, decode and the scale are charged to
// decompress_seconds; the remote payloads' wire bytes are added to
// remote_bytes.
Tensor fold_frames(const Compressor& q, const CompressedTensor& local,
                   int local_rank, const std::vector<Tensor>& frames,
                   ExchangeStats* stats, uint64_t& remote_bytes) {
  const double t0 = stats ? now_seconds() : 0.0;
  Tensor mean;
  for (int peer = 0; peer < static_cast<int>(frames.size()); ++peer) {
    CompressedTensor remote;
    if (peer != local_rank) {
      remote = deserialize(frames[static_cast<size_t>(peer)]);
      remote_bytes += remote.wire_bytes();
    }
    const CompressedTensor& ct = peer == local_rank ? local : remote;
    if (peer == 0) {
      // A remote frame sizes the accumulator only after it has shown the
      // local payload's shape.
      if (ct.ctx.shape != local.ctx.shape) {
        throw std::runtime_error("gather: peer 0's payload has another shape");
      }
      mean = q.decompress(ct);
    } else {
      q.decompress_add(ct, mean.f32());
    }
  }
  ops::scale(mean.f32(), 1.0f / static_cast<float>(frames.size()));
  if (stats) stats->decompress_seconds += now_seconds() - t0;
  return mean;
}

}  // namespace

ExchangeStats& ExchangeStats::operator+=(const ExchangeStats& o) {
  wire_bytes += o.wire_bytes;
  compress_seconds += o.compress_seconds;
  decompress_seconds += o.decompress_seconds;
  comm_seconds += o.comm_seconds;
  return *this;
}

GraceWorker::GraceWorker(const GraceConfig& cfg, comm::Comm comm,
                         comm::NetworkModel net, uint64_t rng_seed)
    : topology_(cfg.topology),
      topo_(comm::make_topology(cfg.topology, net)),
      wire_codec_(cfg.wire_codec),
      base_spec_(cfg.compressor_spec),
      q_(make_compressor(cfg.compressor_spec)),
      comm_(comm),
      rng_(rng_seed) {
  // With a controller configured, any arm may end up serving any bucket at
  // some point of the run, so the EF default is the OR over the base
  // compressor and every arm: a bucket switched onto an EF-default arm
  // must find a live ResidualMemory. An explicit error_feedback setting
  // still wins.
  bool ef_default = q_->info().default_error_feedback;
  for (const std::string& arm : cfg.control.arms) {
    ef_default = ef_default ||
                 make_compressor(arm)->info().default_error_feedback;
  }
  if (cfg.error_feedback.value_or(ef_default)) {
    memory_.emplace(cfg.ef_beta, cfg.ef_gamma);
  }
}

void GraceWorker::set_compressor_override(const std::string& name,
                                          const std::string& spec) {
  if (spec == base_spec_) {
    overrides_.erase(name);
    return;
  }
  auto it = arm_pool_.find(spec);
  if (it == arm_pool_.end()) {
    it = arm_pool_.emplace(spec, make_compressor(spec)).first;
  }
  overrides_[name] = it->second.get();
}

Compressor& GraceWorker::compressor_for(const std::string& name) {
  const auto it = overrides_.find(name);
  return it != overrides_.end() ? *it->second : *q_;
}

void GraceWorker::rebind(comm::Comm comm, const comm::NetworkModel& net) {
  comm_ = comm;
  // A smaller world may invalidate the old parameters (e.g. ps_shards ==
  // old n); clamp the shard count rather than failing a membership change.
  // ranks_per_rack gets the same treatment: a world smaller than one rack
  // must collapse to a single rack, or the hierarchical collectives would
  // address leaders that no longer exist.
  topology_.ps_shards = std::min(topology_.ps_shards, net.n_workers);
  topology_.ranks_per_rack = std::min(topology_.ranks_per_rack, net.n_workers);
  topo_ = comm::make_topology(topology_, net);
}

Tensor GraceWorker::residual_snapshot(const std::string& name,
                                      const Tensor& like) const {
  const Tensor* r = memory_ ? memory_->residual(name) : nullptr;
  return r != nullptr ? *r : Tensor::zeros_like(like);
}

void GraceWorker::install_residual(const std::string& name, const Tensor& r) {
  if (memory_) memory_->install(name, r);
}

void GraceWorker::absorb(const Tensor& grad, const std::string& name) {
  if (memory_) memory_->absorb(grad, name);
}

ExchangeHandle GraceWorker::submit(Tensor&& grad, const std::string& name,
                                   bool instrument) {
  return submit_impl(std::move(grad), name, instrument, /*use_memory=*/true);
}

ExchangeHandle GraceWorker::submit_raw(Tensor&& grad, const std::string& name,
                                       bool instrument) {
  return submit_impl(std::move(grad), name, instrument, /*use_memory=*/false);
}

ExchangeHandle GraceWorker::submit_impl(Tensor&& grad,
                                        const std::string& name,
                                        bool instrument, bool use_memory) {
  ExchangeHandle h;
  h.instrumented = instrument;
  h.tag = next_tag_++;
  h.compressor = &compressor_for(name);
  Compressor& q = *h.compressor;
  ExchangeStats* const sp = instrument ? &h.stats : nullptr;

  // Lines 5-6: g~ = Q(phi(m, g)); m = psi(...). submit_raw skips both
  // memory touches: the payload is Q(g) and the residual stays untouched.
  // With error feedback off, phi is the identity, so Q takes the gradient
  // itself, and takes it over unless the probe reads it after Q.
  const double t0 = sp ? now_seconds() : 0.0;
  const bool feedback = use_memory && memory_.has_value();
  Tensor compensated;
  if (feedback) compensated = memory_->compensate(grad, name);
  const Tensor& input = feedback ? compensated : grad;
  h.payload = feedback || probe_ != nullptr
                  ? q.compress(input, name, rng_)
                  : q.compress_owned(std::move(grad), name, rng_);
  // Lossless wire stage, inside the timed region: the coding cost lands in
  // compress_seconds and the coded size in wire_bytes, so the scheduler's
  // codec-rate pipeline and the NetworkModel both see the real trade.
  if (wire_codec_ != WireCodec::None) {
    apply_wire_codec(h.payload, wire_codec_);
  }
  Tensor reconstruction;  // Q^-1(Q(phi)); only materialized when needed
  if (feedback) {
    reconstruction = q.decompress(h.payload);
    memory_->update(name, compensated, reconstruction);
  }
  if (sp) {
    sp->compress_seconds = now_seconds() - t0;
    sp->wire_bytes = h.payload.wire_bytes();
  }
  if (probe_) {
    // Outside the timed region: probing must not inflate compress_seconds.
    if (reconstruction.empty()) reconstruction = q.decompress(h.payload);
    probe_fidelity(name, input, h.payload, reconstruction);
  }
  return h;
}

Tensor GraceWorker::wait(ExchangeHandle&& h, ExchangeStats* stats) {
  // The collective reads h.stats.wire_bytes for its cost model, so the
  // comm/decompress charges accumulate onto the submit-side stats.
  ExchangeStats* const sp = h.instrumented ? &h.stats : nullptr;
  Compressor& q = *h.compressor;
  Tensor aggregated =
      topology_.kind == comm::TopologyKind::ParameterServer
          ? exchange_parameter_server(q, h.payload, h.tag, sp)
          : exchange_collective(q, std::move(h.payload), h.tag, sp);
  if (stats) *stats += h.stats;
  return aggregated;
}

void GraceWorker::probe_fidelity(const std::string& name,
                                 const Tensor& compensated,
                                 const CompressedTensor& compressed,
                                 const Tensor& reconstruction) {
  const auto x = compensated.f32();
  const auto y = reconstruction.f32();
  const size_t n = x.size();
  // One fused pass, accumulated in double: the probe runs on large
  // gradients where float accumulation of squared sums loses digits.
  double xx = 0.0, yy = 0.0, xy = 0.0, d2 = 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    xx += xi * xi;
    yy += yi * yi;
    xy += xi * yi;
    const double d = xi - yi;
    d2 += d * d;
    const int sx = xi > 0.0 ? 1 : (xi < 0.0 ? -1 : 0);
    const int sy = yi > 0.0 ? 1 : (yi < 0.0 ? -1 : 0);
    agree += sx == sy;
  }

  FidelitySample s;
  s.rank = probe_rank_ >= 0 ? probe_rank_ : comm_.rank();
  s.tensor = name;
  s.numel = compensated.numel();
  s.dense_bits = static_cast<uint64_t>(s.numel) * 32;
  s.wire_bits = compressed.ctx.wire_bits;
  s.compression_ratio = s.wire_bits > 0
                            ? static_cast<double>(s.dense_bits) /
                                  static_cast<double>(s.wire_bits)
                            : 0.0;
  // raw_wire_bits == 0 means the lossless stage did not fire; report the
  // wire size itself so lossless_ratio degenerates to exactly 1.
  s.raw_wire_bits = compressed.ctx.raw_wire_bits > 0
                        ? compressed.ctx.raw_wire_bits
                        : s.wire_bits;
  s.lossless_ratio = s.wire_bits > 0 ? static_cast<double>(s.raw_wire_bits) /
                                           static_cast<double>(s.wire_bits)
                                     : 1.0;
  s.grad_l2 = std::sqrt(xx);
  s.l2_rel_error = xx > 0.0 ? std::sqrt(d2 / xx) : 0.0;
  s.cosine_similarity = (xx > 0.0 && yy > 0.0)
                            ? xy / (std::sqrt(xx) * std::sqrt(yy))
                            : 1.0;
  s.sign_agreement = n > 0 ? static_cast<double>(agree) /
                                 static_cast<double>(n)
                           : 1.0;
  s.residual_l2 = memory_ ? std::sqrt(d2) : 0.0;
  probe_->on_sample(s);
}

Tensor GraceWorker::exchange_collective(Compressor& q,
                                        CompressedTensor&& compressed,
                                        int tag, ExchangeStats* stats) {
  // The two-level collectives at one rank per rack run the flat ring
  // message for message, so Ring is the rack-of-one hierarchy. Results are
  // identical on every rank (the leader ring produces one bit pattern and
  // fans it out), but with racks of several ranks the sum association
  // differs from the flat ring's, so Allreduce-mode results are
  // float-close, not bit-equal, across rack sizes.
  const int rack = topo_.ranks_per_rack();
  Tensor aggregated;
  if (q.comm_mode() == CommMode::Allreduce) {
    // Lines 8-9: summing payloads commutes with Q^-1 for Allreduce-capable
    // compressors; divide by n after decompression. The payload's own parts
    // ring in place.
    for (auto& part : compressed.parts) {
      comm::hierarchical_allreduce_sum(comm_, part.f32(), rack, tag);
    }
    if (stats) stats->comm_seconds += topo_.allreduce_seconds(stats->wire_bytes);
    const double t0 = stats ? now_seconds() : 0.0;
    aggregated = q.decompress_owned(std::move(compressed));
    ops::scale(aggregated.f32(), 1.0f / static_cast<float>(comm_.size()));
    if (stats) stats->decompress_seconds += now_seconds() - t0;
  } else {
    // Lines 11-13: gather every worker's payload, then fold them into Agg.
    const std::vector<Tensor> frames =
        comm::hierarchical_allgather(comm_, serialize(compressed), rack, tag);
    uint64_t others_bytes = 0;
    aggregated = fold_frames(q, compressed, comm_.rank(), frames, stats,
                             others_bytes);
    if (stats) {
      stats->comm_seconds +=
          topo_.allgather_seconds(stats->wire_bytes, others_bytes);
    }
  }
  return aggregated;
}

Tensor GraceWorker::exchange_parameter_server(
    Compressor& q, const CompressedTensor& compressed, int tag,
    ExchangeStats* stats) {
  // The serving shard collects every worker's compressed payload, folds
  // them into Agg, and pushes the dense aggregate back. Equivalent result
  // to the Allgather path because both run fold_frames in rank order.
  // With ps_shards > 1 the serving rank is tag % ps_shards
  // (mxnet-kvstore style bucket sharding): every rank
  // advances next_tag_ identically, so all ranks agree on the shard with
  // no coordination, and consecutive fusion buckets land on different
  // server links.
  const int n = comm_.size();
  const int shards = std::max(1, topology_.ps_shards);
  const int server = (tag % shards + shards) % shards;
  Tensor aggregated;
  uint64_t total_upload = stats ? stats->wire_bytes : 0;
  if (comm_.rank() == server) {
    // This shard's own payload folds in at its rank position.
    std::vector<Tensor> frames(static_cast<size_t>(n));
    for (int peer = 0; peer < n; ++peer) {
      if (peer != server) {
        frames[static_cast<size_t>(peer)] = comm_.recv(peer, tag);
      }
    }
    aggregated =
        fold_frames(q, compressed, server, frames, stats, total_upload);
    for (int peer = 0; peer < n; ++peer) {
      if (peer != server) comm_.send(peer, aggregated, tag);
    }
  } else {
    comm_.send(server, serialize(compressed), tag);
    aggregated = comm_.recv(server, tag);
    // Workers do not know the other uploads' exact sizes; charge the
    // model's symmetric estimate (n equal uploads).
    if (stats) total_upload = stats->wire_bytes * static_cast<uint64_t>(n);
  }
  if (stats) {
    stats->comm_seconds +=
        topo_.push_pull_seconds(total_upload, aggregated.size_bytes());
  }
  return aggregated;
}

}  // namespace grace::core
