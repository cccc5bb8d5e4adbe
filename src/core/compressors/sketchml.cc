// SketchML (Jiang et al., SIGMOD'18): sketch-based hybrid compression. A
// non-uniform quantile sketch is built from a sample of the gradient values;
// every element is encoded as the index of its quantile bucket
// (log2(buckets) bits) and decoded to the bucket's representative value.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/compressors/compressors.h"
#include "tensor/ops.h"

namespace grace::core::compressors {
namespace {

constexpr int64_t kSketchSample = 1024;

class SketchMl final : public Compressor {
 public:
  explicit SketchMl(int buckets) : buckets_(buckets) {}

  CompressedTensor compress(const Tensor& grad, const std::string&, Rng& rng) override {
    auto x = grad.f32();
    const auto d = static_cast<int64_t>(x.size());
    // Build the quantile sketch from a random sample (signed values, like
    // SketchML's non-uniform quantile buckets).
    const int64_t sample_n = std::min(d, kSketchSample);
    std::vector<float> sample(static_cast<size_t>(sample_n));
    for (auto& s : sample) s = x[static_cast<size_t>(rng.uniform_int(d))];
    // Only ~2*buckets order statistics of the sample are read (bucket
    // boundaries and representatives), so instead of fully sorting we run
    // one nth_element per needed rank, in ascending rank order: after
    // selecting rank r, everything left of r is <= sample[r] and position r
    // is final, so the next selection operates on the suffix past r.
    // O(sample * ranks) worst
    // case instead of O(sample log sample), and each selected value is
    // exactly the fully-sorted value at that rank.
    auto rank_at = [&](double frac) {
      return static_cast<size_t>(frac * static_cast<double>(sample_n - 1));
    };
    std::vector<size_t> ranks;
    for (int b = 0; b < buckets_; ++b) {
      const double inv = 1.0 / static_cast<double>(buckets_);
      const size_t lo = rank_at(b * inv);
      const size_t hi = rank_at((b + 1) * inv);
      if (b + 1 < buckets_) ranks.push_back(hi);
      ranks.push_back((lo + hi) / 2);
    }
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    size_t selected_from = 0;
    for (size_t r : ranks) {
      std::nth_element(sample.begin() + static_cast<int64_t>(selected_from),
                       sample.begin() + static_cast<int64_t>(r), sample.end());
      selected_from = r + 1;  // position r now holds its sorted value
    }
    // Bucket b covers sample quantile range [b/B, (b+1)/B); its
    // representative is the sample midpoint of that range.
    std::vector<float> boundaries(static_cast<size_t>(buckets_) - 1);
    std::vector<float> representatives(static_cast<size_t>(buckets_));
    for (int b = 0; b + 1 < buckets_; ++b) {
      boundaries[static_cast<size_t>(b)] =
          sample[rank_at(static_cast<double>(b + 1) / buckets_)];
    }
    for (int b = 0; b < buckets_; ++b) {
      const size_t lo = rank_at(static_cast<double>(b) / buckets_);
      const size_t hi = rank_at(static_cast<double>(b + 1) / buckets_);
      representatives[static_cast<size_t>(b)] = sample[(lo + hi) / 2];
    }

    Tensor codes(DType::U8, Shape{{d}});
    auto c = codes.u8();
    for (int64_t i = 0; i < d; ++i) {
      const auto it = std::upper_bound(boundaries.begin(), boundaries.end(),
                                       x[static_cast<size_t>(i)]);
      c[static_cast<size_t>(i)] = static_cast<uint8_t>(it - boundaries.begin());
    }
    CompressedTensor ct;
    ct.parts = {std::move(codes),
                Tensor::from(representatives)};
    ct.ctx.shape = grad.shape();
    const auto code_bits = static_cast<uint64_t>(
        std::ceil(std::log2(static_cast<double>(buckets_))));
    ct.ctx.wire_bits =
        static_cast<uint64_t>(d) * code_bits + static_cast<uint64_t>(buckets_) * 32;
    return ct;
  }

  Tensor decompress(const CompressedTensor& ct) const override {
    Tensor out = Tensor::zeros(ct.ctx.shape);
    auto o = out.f32();
    auto c = wire_part(ct, 0, DType::U8, out.numel(), "sketchml").u8();
    // One representative per bucket; every code names one of them.
    auto reps = wire_part(ct, 1, DType::F32, buckets_, "sketchml").f32();
    if (!c.empty() && *std::max_element(c.begin(), c.end()) >= reps.size()) {
      throw std::runtime_error("sketchml: code past the last bucket");
    }
    for (size_t i = 0; i < o.size(); ++i) o[i] = reps[c[i]];
    return out;
  }

  CompressorInfo info() const override {
    return {"sketchml", CompressorClass::Hybrid, QNature::Random, true,
            "adaptive"};
  }

 private:
  int buckets_;
};

}  // namespace

std::unique_ptr<Compressor> make_sketchml(int buckets) {
  return std::make_unique<SketchMl>(buckets);
}

}  // namespace grace::core::compressors
