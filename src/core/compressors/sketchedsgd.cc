// Sketched-SGD (Ivkin et al., NeurIPS'19): the gradient is summarized by a
// count-sketch; the receiver queries the sketch to recover the "heavy
// hitter" coordinates that approximate the Top-k. Only the sketch (r rows x
// c columns of float32) crosses the wire, independent of which coordinates
// are heavy. Hash seeds derive from the tensor name so sender and receiver
// agree without transmitting them.
//
// Extension beyond the paper's 16 implemented methods.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/compressors/compressors.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t hash_name(const std::string& name) {
  uint64_t h = 14695981039346656037ULL;
  for (char ch : name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(ch));
    h *= 1099511628211ULL;
  }
  return h;
}

struct SketchGeometry {
  int64_t rows, cols;
  uint64_t seed;

  int64_t bucket(int64_t row, int64_t i) const {
    return static_cast<int64_t>(mix(seed + static_cast<uint64_t>(row) * 0x9e37ULL +
                                    static_cast<uint64_t>(i)) %
                                static_cast<uint64_t>(cols));
  }
  float sign(int64_t row, int64_t i) const {
    return (mix(seed ^ (static_cast<uint64_t>(row) * 0xabcdULL + 17 +
                        static_cast<uint64_t>(i))) &
            1u)
               ? 1.0f
               : -1.0f;
  }
};

class SketchedSgd final : public Compressor {
 public:
  SketchedSgd(int rows, double col_ratio, double k_ratio)
      : rows_(rows), col_ratio_(col_ratio), k_ratio_(k_ratio) {}

  CompressedTensor compress(const Tensor& grad, const std::string& name,
                            Rng&) override {
    auto x = grad.f32();
    const auto d = static_cast<int64_t>(x.size());
    const SketchGeometry geom = geometry(name, d);
    Tensor sketch = Tensor::zeros(Shape{{geom.rows, geom.cols}});
    auto s = sketch.f32();
    for (int64_t i = 0; i < d; ++i) {
      for (int64_t r = 0; r < geom.rows; ++r) {
        s[static_cast<size_t>(r * geom.cols + geom.bucket(r, i))] +=
            geom.sign(r, i) * x[static_cast<size_t>(i)];
      }
    }
    CompressedTensor ct;
    ct.parts = {std::move(sketch)};
    ct.ctx.shape = grad.shape();
    ct.ctx.ints = {static_cast<int64_t>(geom.seed)};
    ct.ctx.wire_bits = static_cast<uint64_t>(geom.rows * geom.cols) * 32 + 64;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    // Query every coordinate (median-of-rows estimate) and keep the top-k
    // heavy hitters. The hash seed travels in ctx so any receiver can
    // reconstruct the geometry.
    const auto d = ct.ctx.shape.numel();
    const Tensor& sketch = ct.parts.at(0);
    if (sketch.dtype() != DType::F32 || sketch.shape().rank() != 2 ||
        sketch.shape()[0] < 1 || sketch.shape()[1] < 1) {
      throw std::runtime_error("sketchedsgd: sketch part is not a matrix");
    }
    SketchGeometry geom;
    geom.rows = sketch.shape()[0];
    geom.cols = sketch.shape()[1];
    geom.seed = static_cast<uint64_t>(ct.ctx.ints.at(0));
    auto s = sketch.f32();
    Tensor estimates = Tensor::zeros(Shape{{d}});
    auto e = estimates.f32();
    std::vector<float> row_vals(static_cast<size_t>(geom.rows));
    for (int64_t i = 0; i < d; ++i) {
      for (int64_t r = 0; r < geom.rows; ++r) {
        row_vals[static_cast<size_t>(r)] =
            geom.sign(r, i) *
            s[static_cast<size_t>(r * geom.cols + geom.bucket(r, i))];
      }
      std::nth_element(row_vals.begin(), row_vals.begin() + geom.rows / 2,
                       row_vals.end());
      e[static_cast<size_t>(i)] = row_vals[static_cast<size_t>(geom.rows / 2)];
    }
    const auto k = std::max<int64_t>(
        1, static_cast<int64_t>(k_ratio_ * static_cast<double>(d)));
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    for (int32_t i : ops::topk_abs_indices(e, k)) {
      o[static_cast<size_t>(i)] = e[static_cast<size_t>(i)];
    }
    return out;
  }

  CompressorInfo info() const override {
    return {"sketchedsgd", CompressorClass::Sparsification,
            QNature::Deterministic, true, "k"};
  }

 private:
  SketchGeometry geometry(const std::string& name, int64_t d) const {
    SketchGeometry g;
    g.rows = rows_;
    g.cols = std::max<int64_t>(8, static_cast<int64_t>(col_ratio_ * static_cast<double>(d)));
    g.seed = hash_name(name);
    return g;
  }

  int rows_;
  double col_ratio_;
  double k_ratio_;
};

}  // namespace

std::unique_ptr<Compressor> make_sketchedsgd(int rows, double col_ratio,
                                             double k_ratio) {
  return std::make_unique<SketchedSgd>(rows, col_ratio, k_ratio);
}

}  // namespace grace::core::compressors
