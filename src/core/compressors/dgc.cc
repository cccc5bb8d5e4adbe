// Deep Gradient Compression (Lin et al., ICLR'18). Momentum correction and
// gradient accumulation happen inside the compressor (the paper implements
// them as customized memory functions):
//   u_k = beta * u_{k-1} + clip(g_k)    (momentum correction)
//   v_k = v_{k-1} + u_k                 (accumulation / error feedback)
// A threshold estimated from a sample of |v| selects ~ratio*d elements;
// transmitted positions are cleared from both u and v (momentum factor
// masking). Two stabilizers from the original paper are implemented:
// gradient clipping (to a running-average norm) and sparsity warm-up
// (selection ratio decays exponentially from dense to the target).
// Framework-level EF stays off — DGC's memory is built in.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/compressors/compressors.h"
#include "core/helper_ops.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

constexpr int64_t kMinSample = 256;
constexpr double kWarmupStartRatio = 0.25;
constexpr double kWarmupDecay = 0.9;  // per-iteration ratio decay
constexpr float kClipFactor = 1.0f;  // clip to the running-average gradient norm

class Dgc final : public Compressor {
 public:
  Dgc(double ratio, double momentum)
      : ratio_(ratio), beta_(static_cast<float>(momentum)) {}

  CompressedTensor compress(const Tensor& grad, const std::string& name,
                            Rng& rng) override {
    auto& st = state_[name];
    if (st.u.numel() != grad.numel()) {
      st.u = Tensor::zeros_like(grad);
      st.v = Tensor::zeros_like(grad);
      st.norm_ref = 0.0f;
      st.iters = 0;
    }
    // Gradient clipping by global norm (DGC §3.2), referenced to a running
    // average so the threshold adapts to the model's gradient scale.
    Tensor clipped = grad;
    const float gnorm = ops::l2_norm(clipped.f32());
    if (st.norm_ref > 0.0f && gnorm > kClipFactor * st.norm_ref) {
      ops::scale(clipped.f32(), kClipFactor * st.norm_ref / gnorm);
    }
    st.norm_ref = st.norm_ref == 0.0f ? gnorm : 0.9f * st.norm_ref + 0.1f * gnorm;

    auto u = st.u.f32();
    auto v = st.v.f32();
    ops::scale(u, beta_);
    ops::add(u, clipped.f32());
    ops::add(v, u);

    // Sparsity warm-up (DGC §3.3): start nearly dense, decay exponentially
    // to the target ratio.
    const double warm = kWarmupStartRatio *
                        std::pow(kWarmupDecay, static_cast<double>(st.iters));
    const double ratio = std::max(ratio_, warm);
    ++st.iters;

    const int64_t d = grad.numel();
    const int64_t k = std::max<int64_t>(1, static_cast<int64_t>(ratio * static_cast<double>(d)));
    const float threshold = estimate_threshold(v, k, d, rng);
    std::vector<int32_t> indices = ops::threshold_indices(v, threshold);
    if (indices.empty()) {
      // Degenerate distribution (e.g. all-equal values): fall back to top-k.
      indices = ops::topk_abs_indices(v, k);
    }
    Tensor values = sparsify(v, indices);
    for (int32_t i : indices) {
      v[static_cast<size_t>(i)] = 0.0f;
      u[static_cast<size_t>(i)] = 0.0f;  // momentum factor masking
    }
    return sparse_payload(std::move(values), indices, grad.shape());
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    return desparsify(ct.parts.at(0), ct.parts.at(1), ct.ctx.shape);
  }

  CompressorInfo info() const override {
    // EF-On in Table I refers to DGC *using* memory, which is built into
    // this compressor (u/v accumulators). Framework-level EF must stay off
    // or the gradient would be accumulated twice.
    return {"dgc", CompressorClass::Sparsification, QNature::Deterministic,
            false, "adaptive"};
  }

 private:
  // Threshold such that ~k elements of |v| exceed it, estimated from a
  // random sample (this loop is the overhead §V-D profiles; we run the
  // single-iteration variant the paper found ~2x faster).
  static float estimate_threshold(std::span<const float> v, int64_t k,
                                  int64_t d, Rng& rng) {
    const int64_t sample_n = std::min(d, std::max(kMinSample, d / 100));
    std::vector<float> sample(static_cast<size_t>(sample_n));
    for (auto& s : sample) {
      s = std::fabs(v[static_cast<size_t>(rng.uniform_int(d))]);
    }
    // Keep the same fraction within the sample as k/d within the tensor.
    auto keep = static_cast<int64_t>(
        static_cast<double>(k) / static_cast<double>(d) * static_cast<double>(sample_n));
    keep = std::clamp<int64_t>(keep, 1, sample_n);
    std::nth_element(sample.begin(), sample.begin() + (keep - 1), sample.end(),
                     std::greater<>());
    return sample[static_cast<size_t>(keep - 1)];
  }

  struct State {
    Tensor u, v;
    float norm_ref = 0.0f;
    int64_t iters = 0;
  };
  double ratio_;
  float beta_;
  std::unordered_map<std::string, State> state_;
};

}  // namespace

std::unique_ptr<Compressor> make_dgc(double ratio, double momentum) {
  return std::make_unique<Dgc>(ratio, momentum);
}

}  // namespace grace::core::compressors
