// GradiVeQ (Yu et al., NeurIPS'18): linear gradient vector quantization via
// PCA. The flattened gradient reshapes to column vectors of length m; a PCA
// basis U (m x r) learned from past gradients compresses each column to its
// r projection coefficients U^T v. The basis refreshes periodically from
// the current gradient (our stand-in for GradiVeQ's recurring training
// phase); between refreshes only the coefficients cross the wire, since
// receivers hold the same basis epoch (the basis ships when refreshed).
//
// Extension beyond the paper's 16 implemented methods.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/compressors/compressors.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

constexpr int64_t kColumn = 16;  // m: vector length of each quantized slice

// Orthonormal basis of the top-r principal directions of the columns of
// data (m x cols), via a few subspace iterations.
Tensor pca_basis(std::span<const float> data, int64_t m, int64_t cols,
                 int64_t r, uint64_t seed) {
  Tensor basis(DType::F32, Shape{{m, r}});
  Rng rng(seed);
  rng.fill_normal(basis.f32(), 0.0f, 1.0f);
  Tensor proj(DType::F32, Shape{{cols, r}});
  for (int it = 0; it < 6; ++it) {
    // proj = data^T * basis ; basis = data * proj ; orthonormalize.
    ops::gemm(true, false, cols, r, m, 1.0f, data, basis.f32(), 0.0f, proj.f32());
    ops::gemm(false, false, m, r, cols, 1.0f, data, proj.f32(), 0.0f, basis.f32());
    // Gram-Schmidt columns.
    auto b = basis.f32();
    for (int64_t j = 0; j < r; ++j) {
      for (int64_t i = 0; i < j; ++i) {
        double dot = 0.0;
        for (int64_t row = 0; row < m; ++row) {
          dot += static_cast<double>(b[static_cast<size_t>(row * r + j)]) *
                 b[static_cast<size_t>(row * r + i)];
        }
        for (int64_t row = 0; row < m; ++row) {
          b[static_cast<size_t>(row * r + j)] -=
              static_cast<float>(dot) * b[static_cast<size_t>(row * r + i)];
        }
      }
      double norm2 = 0.0;
      for (int64_t row = 0; row < m; ++row) {
        norm2 += static_cast<double>(b[static_cast<size_t>(row * r + j)]) *
                 b[static_cast<size_t>(row * r + j)];
      }
      const double norm = std::sqrt(norm2);
      for (int64_t row = 0; row < m; ++row) {
        if (norm > 1e-12) {
          b[static_cast<size_t>(row * r + j)] /= static_cast<float>(norm);
        } else {
          b[static_cast<size_t>(row * r + j)] = row == j ? 1.0f : 0.0f;
        }
      }
    }
  }
  return basis;
}

class GradiVeq final : public Compressor {
 public:
  GradiVeq(int rank, int refresh_every)
      : rank_(rank), refresh_every_(std::max(1, refresh_every)) {}

  CompressedTensor compress(const Tensor& grad, const std::string& name,
                            Rng&) override {
    const int64_t d = grad.numel();
    const int64_t m = std::min<int64_t>(kColumn, d);
    const int64_t cols = (d + m - 1) / m;
    const int64_t r = std::min<int64_t>(rank_, m);

    // Zero-pad the flattened gradient into an (m x cols) column matrix
    // (column c = elements [c*m, (c+1)*m)).
    Tensor matrix = Tensor::zeros(Shape{{m, cols}});
    auto mv = matrix.f32();
    auto x = grad.f32();
    for (int64_t i = 0; i < d; ++i) {
      mv[static_cast<size_t>((i % m) * cols + i / m)] = x[static_cast<size_t>(i)];
    }

    auto& st = state_[name];
    const bool refresh = st.iters % refresh_every_ == 0 ||
                         st.basis.numel() != m * r;
    if (refresh) {
      st.basis = pca_basis(mv, m, cols, r, st.iters + 1);
    }
    ++st.iters;

    // Coefficients C = U^T M  (r x cols).
    Tensor coeffs(DType::F32, Shape{{r, cols}});
    ops::gemm(true, false, r, cols, m, 1.0f, st.basis.f32(), mv, 0.0f,
              coeffs.f32());
    CompressedTensor ct;
    ct.parts = {std::move(coeffs), st.basis};
    ct.ctx.shape = grad.shape();
    ct.ctx.ints = {m, cols, r, refresh ? 1 : 0};
    // Wire: coefficients always; the basis only on refresh iterations.
    ct.ctx.wire_bits = static_cast<uint64_t>(r * cols) * 32 +
                       (refresh ? static_cast<uint64_t>(m * r) * 32 : 0);
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    // The column matrix compress() derives from the element count.
    const int64_t d = ct.ctx.shape.numel();
    const int64_t want_m = std::min<int64_t>(kColumn, d);
    const int64_t m = wire_int(ct, 0, want_m, want_m, "gradiveq");
    const int64_t want_cols = m > 0 ? (d + m - 1) / m : 0;
    const int64_t cols = wire_int(ct, 1, want_cols, want_cols, "gradiveq");
    const int64_t r = wire_int(ct, 2, 0, m, "gradiveq");
    const Tensor& coeffs = wire_part(ct, 0, DType::F32, r * cols, "gradiveq");
    const Tensor& basis = wire_part(ct, 1, DType::F32, m * r, "gradiveq");
    // M~ = U C
    Tensor matrix(DType::F32, Shape{{m, cols}});
    ops::gemm(false, false, m, cols, r, 1.0f, basis.f32(), coeffs.f32(), 0.0f,
              matrix.f32());
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    auto mv = matrix.f32();
    for (int64_t i = 0; i < out.numel(); ++i) {
      o[static_cast<size_t>(i)] = mv[static_cast<size_t>((i % m) * cols + i / m)];
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"gradiveq", CompressorClass::LowRank, QNature::Deterministic,
            true, "(m+L)r"};
  }

 private:
  struct State {
    Tensor basis;
    int64_t iters = 0;
  };
  int rank_;
  int refresh_every_;
  std::unordered_map<std::string, State> state_;
};

}  // namespace

std::unique_ptr<Compressor> make_gradiveq(int rank, int refresh_every) {
  return std::make_unique<GradiVeq>(rank, refresh_every);
}

}  // namespace grace::core::compressors
