// GradZip (Cho et al., NeurIPS'19 workshop): low-rank gradient compression
// via regularized alternating matrix factorization. The gradient matrix
// M (m x L) factorizes into P (m x r), R (r x L) by minimizing
// ||M - P R||_F^2 + mu (||P||_F^2 + ||R||_F^2) with alternating
// ridge-regression updates, warm-started across iterations:
//   P <- M R^T (R R^T + mu I)^-1,   R <- (P^T P + mu I)^-1 P^T M
// The wire carries P and R, (m + L) r floats, like PowerSGD — the
// difference is the explicit regularizer and the alternating solve.
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

// Solves the r x r SPD system (A + mu I) X = B in place via Cholesky;
// A is r x r, B is r x n (row-major), X overwrites B.
void ridge_solve(std::span<float> a, int64_t r, float mu, std::span<float> b,
                 int64_t n) {
  // Cholesky factorization A = L L^T with A regularized on the diagonal.
  for (int64_t i = 0; i < r; ++i) a[static_cast<size_t>(i * r + i)] += mu;
  for (int64_t j = 0; j < r; ++j) {
    for (int64_t i = j; i < r; ++i) {
      double sum = a[static_cast<size_t>(i * r + j)];
      for (int64_t k = 0; k < j; ++k) {
        sum -= static_cast<double>(a[static_cast<size_t>(i * r + k)]) *
               a[static_cast<size_t>(j * r + k)];
      }
      if (i == j) {
        a[static_cast<size_t>(j * r + j)] =
            static_cast<float>(std::sqrt(std::max(1e-12, sum)));
      } else {
        a[static_cast<size_t>(i * r + j)] =
            static_cast<float>(sum / a[static_cast<size_t>(j * r + j)]);
      }
    }
  }
  // Forward/backward substitution per column of B.
  for (int64_t col = 0; col < n; ++col) {
    // L y = b
    for (int64_t i = 0; i < r; ++i) {
      double sum = b[static_cast<size_t>(i * n + col)];
      for (int64_t k = 0; k < i; ++k) {
        sum -= static_cast<double>(a[static_cast<size_t>(i * r + k)]) *
               b[static_cast<size_t>(k * n + col)];
      }
      b[static_cast<size_t>(i * n + col)] =
          static_cast<float>(sum / a[static_cast<size_t>(i * r + i)]);
    }
    // L^T x = y
    for (int64_t i = r - 1; i >= 0; --i) {
      double sum = b[static_cast<size_t>(i * n + col)];
      for (int64_t k = i + 1; k < r; ++k) {
        sum -= static_cast<double>(a[static_cast<size_t>(k * r + i)]) *
               b[static_cast<size_t>(k * n + col)];
      }
      b[static_cast<size_t>(i * n + col)] =
          static_cast<float>(sum / a[static_cast<size_t>(i * r + i)]);
    }
  }
}

class GradZip final : public Compressor {
 public:
  GradZip(int rank, double mu) : rank_(rank), mu_(static_cast<float>(mu)) {}

  CompressedTensor compress(const Tensor& grad, const std::string& name,
                            Rng&) override {
    const Shape matrix = grad.shape().as_matrix();
    const int64_t m = matrix[0];
    const int64_t l = matrix[1];
    const int64_t r = std::min<int64_t>(rank_, std::min(m, l));
    auto mv = grad.f32();

    auto& st = state_[name];
    if (st.r_factor.numel() != r * l) {
      st.r_factor = Tensor(DType::F32, Shape{{r, l}});
      Rng init(0xC0FFEE ^ static_cast<uint64_t>(l * 31 + r));
      init.fill_normal(st.r_factor.f32(), 0.0f, 1.0f / std::sqrt(static_cast<float>(l)));
    }

    // One alternating step per iteration (warm start carries the rest).
    // P = M R^T (R R^T + mu I)^-1
    Tensor p(DType::F32, Shape{{m, r}});
    {
      Tensor rrt(DType::F32, Shape{{r, r}});
      ops::gemm(false, true, r, r, l, 1.0f, st.r_factor.f32(), st.r_factor.f32(),
                0.0f, rrt.f32());
      Tensor mrt(DType::F32, Shape{{m, r}});
      ops::gemm(false, true, m, r, l, 1.0f, mv, st.r_factor.f32(), 0.0f, mrt.f32());
      // Solve (R R^T + mu I) X = (M R^T)^T, then P = X^T.
      Tensor rhs(DType::F32, Shape{{r, m}});
      ops::transpose(mrt.f32(), m, r, rhs.f32());
      ridge_solve(rrt.f32(), r, mu_, rhs.f32(), m);
      ops::transpose(rhs.f32(), r, m, p.f32());
    }
    // R = (P^T P + mu I)^-1 P^T M
    Tensor r_new(DType::F32, Shape{{r, l}});
    {
      Tensor ptp(DType::F32, Shape{{r, r}});
      ops::gemm(true, false, r, r, m, 1.0f, p.f32(), p.f32(), 0.0f, ptp.f32());
      ops::gemm(true, false, r, l, m, 1.0f, p.f32(), mv, 0.0f, r_new.f32());
      ridge_solve(ptp.f32(), r, mu_, r_new.f32(), l);
    }
    st.r_factor = r_new;

    CompressedTensor ct;
    ct.parts = {std::move(p), std::move(r_new)};
    ct.ctx.shape = grad.shape();
    ct.ctx.ints = {m, l, r};
    ct.ctx.wire_bits = static_cast<uint64_t>((m + l) * r) * 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    const auto [m, l] = wire_matrix(ct, "gradzip");
    const int64_t r = wire_int(ct, 2, 0, std::min(m, l), "gradzip");
    const Tensor& p = wire_part(ct, 0, DType::F32, m * r, "gradzip");
    const Tensor& factor = wire_part(ct, 1, DType::F32, r * l, "gradzip");
    Tensor out = Tensor::zeros(ct.ctx.shape);
    ops::gemm(false, false, m, l, r, 1.0f, p.f32(), factor.f32(), 0.0f,
              out.f32());
    return out;
  }

  CompressorInfo info() const override {
    return {"gradzip", CompressorClass::LowRank, QNature::Deterministic, true,
            "(m+L)r"};
  }

 private:
  struct State {
    Tensor r_factor;
  };
  int rank_;
  float mu_;
  std::unordered_map<std::string, State> state_;
};

}  // namespace

std::unique_ptr<Compressor> make_gradzip(int rank, double mu) {
  return std::make_unique<GradZip>(rank, mu);
}

}  // namespace grace::core::compressors
