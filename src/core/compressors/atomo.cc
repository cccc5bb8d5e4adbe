// Spectral ATOMO (Wang et al., NeurIPS'18): atomic decomposition in the
// singular-value basis with importance sampling. The gradient matrix
// M = sum_i sigma_i u_i v_i^T is truncated to its leading singular triples
// (power iteration with deflation); each atom survives with probability
// p_i = min(1, s * sigma_i / sum(sigma)), and surviving atoms rescale by
// 1/p_i, making the estimator unbiased over the retained subspace while
// meeting the sparsity budget s in expectation.
//
// Extension beyond the paper's 16 implemented methods.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/compressors/compressors.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

// Leading singular triple of the (m x l) matrix `a` via power iteration.
// Returns sigma; u (m), v (l) are written in place.
float power_iteration(std::span<const float> a, int64_t m, int64_t l,
                      std::span<float> u, std::span<float> v, Rng& rng) {
  rng.fill_normal(v, 0.0f, 1.0f);
  float sigma = 0.0f;
  for (int it = 0; it < 12; ++it) {
    // u = A v ; normalize.
    ops::gemm(false, false, m, 1, l, 1.0f, a, v, 0.0f, u);
    const float un = ops::l2_norm(u);
    if (un < 1e-20f) return 0.0f;
    ops::scale(u, 1.0f / un);
    // v = A^T u ; sigma = ||v||.
    ops::gemm(true, false, l, 1, m, 1.0f, a, u, 0.0f, v);
    sigma = ops::l2_norm(v);
    if (sigma < 1e-20f) return 0.0f;
    ops::scale(v, 1.0f / sigma);
  }
  return sigma;
}

class Atomo final : public Compressor {
 public:
  Atomo(int max_rank, double budget_factor)
      : max_rank_(max_rank), budget_factor_(budget_factor) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng& rng) override {
    const Shape matrix = grad.shape().as_matrix();
    const int64_t m = matrix[0];
    const int64_t l = matrix[1];
    const int64_t r = std::min<int64_t>(max_rank_, std::min(m, l));

    // Truncated SVD by deflation: residual -= sigma u v^T after each triple.
    Tensor residual = grad.reshaped(matrix);
    std::vector<float> sigmas;
    Tensor us(DType::F32, Shape{{r, m}});
    Tensor vs(DType::F32, Shape{{r, l}});
    for (int64_t i = 0; i < r; ++i) {
      auto u = us.f32().subspan(static_cast<size_t>(i * m), static_cast<size_t>(m));
      auto v = vs.f32().subspan(static_cast<size_t>(i * l), static_cast<size_t>(l));
      const float sigma = power_iteration(residual.f32(), m, l, u, v, rng);
      sigmas.push_back(sigma);
      if (sigma == 0.0f) break;
      // residual -= sigma * u v^T
      auto res = residual.f32();
      for (int64_t row = 0; row < m; ++row) {
        const float su = sigma * u[static_cast<size_t>(row)];
        for (int64_t col = 0; col < l; ++col) {
          res[static_cast<size_t>(row * l + col)] -= su * v[static_cast<size_t>(col)];
        }
      }
    }

    // Importance sampling with budget s = budget_factor * r atoms expected.
    const double total = std::accumulate(sigmas.begin(), sigmas.end(), 0.0);
    const double budget = budget_factor_ * static_cast<double>(sigmas.size());
    std::vector<int32_t> kept;
    std::vector<float> scaled_sigmas;
    for (size_t i = 0; i < sigmas.size(); ++i) {
      if (sigmas[i] <= 0.0f || total <= 0.0) continue;
      const double p = std::min(1.0, budget * sigmas[i] / total);
      if (rng.bernoulli(p)) {
        kept.push_back(static_cast<int32_t>(i));
        scaled_sigmas.push_back(static_cast<float>(sigmas[i] / p));
      }
    }
    // Pack kept u/v rows densely.
    const auto kn = static_cast<int64_t>(kept.size());
    Tensor ku(DType::F32, Shape{{kn, m}});
    Tensor kv(DType::F32, Shape{{kn, l}});
    for (int64_t i = 0; i < kn; ++i) {
      const auto src = static_cast<int64_t>(kept[static_cast<size_t>(i)]);
      ops::copy(ku.f32().subspan(static_cast<size_t>(i * m), static_cast<size_t>(m)),
                us.f32().subspan(static_cast<size_t>(src * m), static_cast<size_t>(m)));
      ops::copy(kv.f32().subspan(static_cast<size_t>(i * l), static_cast<size_t>(l)),
                vs.f32().subspan(static_cast<size_t>(src * l), static_cast<size_t>(l)));
    }
    CompressedTensor ct;
    ct.parts = {Tensor::from(scaled_sigmas), std::move(ku), std::move(kv)};
    ct.ctx.shape = grad.shape();
    ct.ctx.ints = {m, l};
    ct.ctx.wire_bits = static_cast<uint64_t>(kn) * static_cast<uint64_t>(m + l + 1) * 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    const auto [m, l] = wire_matrix(ct, "atomo");
    // One sigma per kept atom, and no more atoms than the matrix has ranks.
    const int64_t kept = ct.parts.empty() ? 0 : ct.parts[0].numel();
    if (kept > std::min(m, l)) {
      throw std::runtime_error("atomo: more atoms than the matrix has ranks");
    }
    auto sigmas = wire_part(ct, 0, DType::F32, kept, "atomo").f32();
    auto us = wire_part(ct, 1, DType::F32, kept * m, "atomo").f32();
    auto vs = wire_part(ct, 2, DType::F32, kept * l, "atomo").f32();
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    for (size_t i = 0; i < sigmas.size(); ++i) {
      const auto u = us.subspan(i * static_cast<size_t>(m), static_cast<size_t>(m));
      const auto v = vs.subspan(i * static_cast<size_t>(l), static_cast<size_t>(l));
      for (int64_t row = 0; row < m; ++row) {
        const float su = sigmas[i] * u[static_cast<size_t>(row)];
        for (int64_t col = 0; col < l; ++col) {
          o[static_cast<size_t>(row * l + col)] += su * v[static_cast<size_t>(col)];
        }
      }
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"atomo", CompressorClass::LowRank, QNature::Random, false,
            "sparsity budget"};
  }

 private:
  int max_rank_;
  double budget_factor_;
};

}  // namespace

std::unique_ptr<Compressor> make_atomo(int max_rank, double budget_factor) {
  return std::make_unique<Atomo>(max_rank, budget_factor);
}

}  // namespace grace::core::compressors
