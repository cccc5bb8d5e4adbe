// PowerSGD (Vogels et al., NeurIPS'19): low-rank compression via a single
// step of subspace (power) iteration. The gradient reshapes to a matrix
// M (m x L); with the warm-started factor Q (L x r) from the previous
// iteration, compute P = M Q, orthonormalize P, then Q' = M^T P. The wire
// carries P and Q' — (m + L) * r floats — and decompression reconstructs
// M~ = P Q'^T. Biased; run with error feedback per the paper.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/compressors/compressors.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

// Modified Gram-Schmidt on the columns of a (m x r) row-major matrix.
void orthonormalize_columns(std::span<float> p, int64_t m, int64_t r) {
  for (int64_t j = 0; j < r; ++j) {
    for (int64_t i = 0; i < j; ++i) {
      double proj = 0.0;
      for (int64_t row = 0; row < m; ++row) {
        proj += static_cast<double>(p[static_cast<size_t>(row * r + j)]) *
                p[static_cast<size_t>(row * r + i)];
      }
      for (int64_t row = 0; row < m; ++row) {
        p[static_cast<size_t>(row * r + j)] -=
            static_cast<float>(proj) * p[static_cast<size_t>(row * r + i)];
      }
    }
    double norm2 = 0.0;
    for (int64_t row = 0; row < m; ++row) {
      const double v = p[static_cast<size_t>(row * r + j)];
      norm2 += v * v;
    }
    const double norm = std::sqrt(norm2);
    if (norm > 1e-12) {
      for (int64_t row = 0; row < m; ++row) {
        p[static_cast<size_t>(row * r + j)] /= static_cast<float>(norm);
      }
    } else {
      // Degenerate column: reset to a deterministic unit vector.
      for (int64_t row = 0; row < m; ++row) {
        p[static_cast<size_t>(row * r + j)] = row == j % m ? 1.0f : 0.0f;
      }
    }
  }
}

class PowerSgd final : public Compressor {
 public:
  explicit PowerSgd(int rank) : rank_(rank) {}

  CompressedTensor compress(const Tensor& grad, const std::string& name,
                            Rng&) override {
    const Shape matrix = grad.shape().as_matrix();
    const int64_t m = matrix[0];
    const int64_t l = matrix[1];
    const int64_t r = std::min<int64_t>(rank_, std::min(m, l));

    auto& q_state = q_states_[name];
    if (q_state.numel() != l * r) {
      // Warm-start factor: deterministic per tensor name so every worker
      // begins from the same subspace.
      q_state = Tensor(DType::F32, Shape{{l, r}});
      Rng init(hash_name(name));
      init.fill_normal(q_state.f32(), 0.0f, 1.0f);
      orthonormalize_columns(q_state.f32(), l, r);
    }

    Tensor p(DType::F32, Shape{{m, r}});
    ops::gemm(false, false, m, r, l, 1.0f, grad.f32(), q_state.f32(), 0.0f, p.f32());
    orthonormalize_columns(p.f32(), m, r);
    Tensor q(DType::F32, Shape{{l, r}});
    ops::gemm(true, false, l, r, m, 1.0f, grad.f32(), p.f32(), 0.0f, q.f32());
    q_state = q;  // warm start for the next iteration

    CompressedTensor ct;
    ct.parts = {std::move(p), std::move(q)};
    ct.ctx.shape = grad.shape();
    ct.ctx.ints = {m, l, r};
    ct.ctx.wire_bits = static_cast<uint64_t>((m + l) * r) * 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    const auto [m, l] = wire_matrix(ct, "powersgd");
    const int64_t r = wire_int(ct, 2, 0, std::min(m, l), "powersgd");
    const Tensor& p = wire_part(ct, 0, DType::F32, m * r, "powersgd");
    const Tensor& q = wire_part(ct, 1, DType::F32, l * r, "powersgd");
    Tensor out = Tensor::zeros(ct.ctx.shape);
    // M~ = P Q^T
    ops::gemm(false, true, m, l, r, 1.0f, p.f32(), q.f32(), 0.0f, out.f32());
    return out;
  }

  CompressorInfo info() const override {
    return {"powersgd", CompressorClass::LowRank, QNature::Deterministic, true,
            "(m+L)r"};
  }

 private:
  static uint64_t hash_name(const std::string& name) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (char c : name) {
      h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
      h *= 1099511628211ULL;
    }
    return h;
  }

  int rank_;
  std::unordered_map<std::string, Tensor> q_states_;
};

}  // namespace

std::unique_ptr<Compressor> make_powersgd(int rank) {
  return std::make_unique<PowerSgd>(rank);
}

}  // namespace grace::core::compressors
