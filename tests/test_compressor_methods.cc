// Method-specific behaviour: the algorithmic properties that distinguish
// each compressor (statistical unbiasedness, selection rules, code sizes,
// low-rank structure, per-tensor state).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/compressors/compressors.h"
#include "core/registry.h"
#include "tensor/ops.h"
#include "util/simd.h"

namespace grace::core {
namespace {

Tensor random_grad(uint64_t seed, int64_t n = 512) {
  Rng rng(seed);
  Tensor t(DType::F32, Shape{{n}});
  rng.fill_normal(t.f32(), 0.0f, 1.0f);
  return t;
}

// E[Q(x)] == x over repeated randomized compressions.
void expect_unbiased(Compressor& q, double tol) {
  Rng rng(42);
  Tensor grad = random_grad(5, 64);
  Tensor mean = Tensor::zeros(Shape{{64}});
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    Tensor restored = q.decompress(q.compress(grad, "u", rng));
    ops::add(mean.f32(), restored.f32());
  }
  ops::scale(mean.f32(), 1.0f / static_cast<float>(trials));
  Tensor diff = mean;
  ops::sub(diff.f32(), grad.f32());
  EXPECT_LT(ops::linf_norm(diff.f32()), tol);
}

TEST(Qsgd, Unbiased) {
  auto q = compressors::make_qsgd(4);  // coarse levels stress the dithering
  expect_unbiased(*q, 0.25);
}

// QSGD's codec as first written: a Bernoulli draw and a branch per
// round-up, a branch per sign bit, and a division per decoded element.
// The piecewise encode (Rng::uniforms' pieces, on four lanes at Avx2, each
// turned into levels by a vectorized pass) and the SIMD decode must
// reproduce it byte for byte and leave the RNG in the same state. A zero,
// NaN or infinite norm makes every level 0.
struct QsgdReference {
  std::vector<uint8_t> codes, signs;
  float norm = 0.0f;
};

QsgdReference qsgd_reference_encode(std::span<const float> x, int s, Rng& rng) {
  QsgdReference r;
  r.norm = ops::l2_norm(x);
  r.codes.resize(x.size());
  r.signs.assign((x.size() + 7) / 8, 0);
  for (size_t i = 0; i < x.size(); ++i) {
    const float ratio = r.norm > 0.0f && std::isfinite(r.norm)
                            ? std::fabs(x[i]) / r.norm
                            : 0.0f;
    auto level = static_cast<int>(ratio * static_cast<float>(s));
    const float p = ratio * static_cast<float>(s) - static_cast<float>(level);
    if (rng.bernoulli(p)) ++level;
    if (level > s) level = s;
    r.codes[i] = static_cast<uint8_t>(level);
    if (x[i] >= 0.0f) {
      r.signs[i / 8] = static_cast<uint8_t>(r.signs[i / 8] | (1u << (i % 8)));
    }
  }
  return r;
}

std::vector<float> qsgd_reference_decode(const QsgdReference& r, int s) {
  std::vector<float> out(r.codes.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float mag =
        r.norm * static_cast<float>(r.codes[i]) / static_cast<float>(s);
    out[i] = (r.signs[i / 8] >> (i % 8)) & 1u ? mag : -mag;
  }
  return out;
}

TEST(Qsgd, CodecMatchesReferenceLoop) {
  Tensor zeros = Tensor::zeros(Shape{{37}});
  Tensor signed_zeros = random_grad(8, 45);
  for (size_t i = 0; i < 45; i += 3) {
    signed_zeros.f32()[i] = i % 2 ? -0.0f : 0.0f;
  }
  Tensor all_negative_zero = Tensor::full(Shape{{9}}, -0.0f);
  // At Avx2 compress draws whole groups of kLaneGroup on four lanes and the
  // rest in sequence: sizes on and around one group, several groups and a
  // part, and mlp-qsgd's largest gradient (twelve groups). Each is past
  // l2_norm's reduce grain (8192), so the norm sums several chunks.
  constexpr int64_t kGroup = Rng::kLaneGroup;
  std::vector<Tensor> inputs = {random_grad(6, 1021), zeros, signed_zeros,
                                all_negative_zero};
  for (int64_t n : {kGroup - 1, kGroup, kGroup + 1, 3 * kGroup + 17,
                    int64_t{768} * 256}) {
    inputs.push_back(random_grad(static_cast<uint64_t>(60 + n), n));
  }
  inputs.push_back(Tensor::zeros(Shape{{kGroup + 3}}));
  // An infinite element makes the norm infinite, and |inf| / inf is NaN.
  for (int64_t n : {3, 300, 20000}) {
    Tensor g = random_grad(static_cast<uint64_t>(90 + n), n);
    g.f32()[0] = std::numeric_limits<float>::infinity();
    g.f32()[static_cast<size_t>(n / 2)] = -std::numeric_limits<float>::infinity();
    inputs.push_back(std::move(g));
  }
  struct LevelReset {
    ~LevelReset() { util::simd::clear_level_for_testing(); }
  } reset;
  for (util::simd::Level level :
       {util::simd::Level::Scalar, util::simd::detected_level()}) {
    util::simd::set_level_for_testing(level);
    for (int s : {1, 4, 64, 255}) {
      auto q = compressors::make_qsgd(s);
      for (size_t t = 0; t < inputs.size(); ++t) {
        SCOPED_TRACE(std::string(util::simd::level_name(level)) + " s=" +
                     std::to_string(s) + " input " + std::to_string(t));
        Rng rng(17 + t), ref_rng(17 + t);
        const CompressedTensor ct = q->compress(inputs[t], "q", rng);
        const QsgdReference ref =
            qsgd_reference_encode(inputs[t].f32(), s, ref_rng);
        const auto codes = ct.parts.at(0).u8();
        const auto signs = ct.parts.at(1).u8();
        EXPECT_TRUE(std::equal(codes.begin(), codes.end(), ref.codes.begin(),
                               ref.codes.end()));
        EXPECT_TRUE(std::equal(signs.begin(), signs.end(), ref.signs.begin(),
                               ref.signs.end()));
        EXPECT_EQ(ct.ctx.scalars, std::vector<float>{ref.norm});
        EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
        const Tensor decoded = q->decompress(ct);
        const std::vector<float> ref_decoded = qsgd_reference_decode(ref, s);
        ASSERT_EQ(decoded.size_bytes(), ref_decoded.size() * sizeof(float));
        EXPECT_EQ(std::memcmp(decoded.f32().data(), ref_decoded.data(),
                              decoded.size_bytes()),
                  0);
      }
    }
  }
}

TEST(TernGrad, Unbiased) {
  auto q = compressors::make_terngrad();
  expect_unbiased(*q, 0.25);
}

TEST(Natural, Unbiased) {
  auto q = compressors::make_natural();
  expect_unbiased(*q, 0.15);
}

TEST(RandomK, UnbiasedVariantIsUnbiased) {
  auto q = compressors::make_randomk(0.25, /*unbiased=*/true);
  expect_unbiased(*q, 0.35);
}

TEST(Natural, OutputsArePowersOfTwo) {
  auto q = compressors::make_natural();
  Rng rng(1);
  Tensor grad = random_grad(2, 128);
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  for (float v : restored.f32()) {
    if (v == 0.0f) continue;
    const float l = std::log2(std::fabs(v));
    EXPECT_NEAR(l, std::round(l), 1e-5f);
  }
}

TEST(SignSgd, OutputsAreUnitSigns) {
  auto q = compressors::make_signsgd();
  Rng rng(1);
  Tensor grad = random_grad(3, 100);
  auto ct = q->compress(grad, "t", rng);
  EXPECT_EQ(ct.ctx.wire_bits, 100u);  // exactly 1 bit per element
  Tensor restored = q->decompress(ct);
  for (int64_t i = 0; i < 100; ++i) {
    const float expect = grad.f32()[static_cast<size_t>(i)] >= 0.0f ? 1.0f : -1.0f;
    EXPECT_EQ(restored.f32()[static_cast<size_t>(i)], expect);
  }
}

TEST(Signum, MomentumSmoothsSignFlips) {
  auto q = compressors::make_signum(0.9);
  Rng rng(1);
  Tensor pos = Tensor::full(Shape{{8}}, 1.0f);
  Tensor neg = Tensor::full(Shape{{8}}, -0.2f);
  // Long positive history, then one small negative gradient: the sign of
  // the momentum must remain positive.
  for (int i = 0; i < 5; ++i) q->compress(pos, "t", rng);
  Tensor restored = q->decompress(q->compress(neg, "t", rng));
  for (float v : restored.f32()) EXPECT_EQ(v, 1.0f);
}

TEST(Signum, StateIsPerTensor) {
  auto q = compressors::make_signum(0.9);
  Rng rng(1);
  Tensor pos = Tensor::full(Shape{{4}}, 1.0f);
  Tensor neg = Tensor::full(Shape{{4}}, -1.0f);
  for (int i = 0; i < 3; ++i) q->compress(pos, "a", rng);
  Tensor restored = q->decompress(q->compress(neg, "b", rng));
  for (float v : restored.f32()) EXPECT_EQ(v, -1.0f);  // 'b' has no history
}

TEST(OneBit, DecodesToPartitionMeans) {
  auto q = compressors::make_onebit();
  Rng rng(1);
  Tensor grad = Tensor::from(std::vector<float>{-3, -1, 2, 6});
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  EXPECT_FLOAT_EQ(restored.f32()[0], -2.0f);  // mean of {-3,-1}
  EXPECT_FLOAT_EQ(restored.f32()[1], -2.0f);
  EXPECT_FLOAT_EQ(restored.f32()[2], 4.0f);   // mean of {2,6}
  EXPECT_FLOAT_EQ(restored.f32()[3], 4.0f);
}

TEST(EfSignSgd, ScaleIsMeanAbsoluteValue) {
  auto q = compressors::make_efsignsgd();
  Rng rng(1);
  Tensor grad = Tensor::from(std::vector<float>{-2, 2, -2, 2});
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(std::fabs(restored.f32()[static_cast<size_t>(i)]), 2.0f);
  }
}

TEST(TopK, SelectsLargestMagnitudes) {
  auto q = compressors::make_topk(0.1);
  Rng rng(1);
  Tensor grad = random_grad(6, 200);
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  std::vector<float> mags(grad.f32().begin(), grad.f32().end());
  for (float& m : mags) m = std::fabs(m);
  std::nth_element(mags.begin(), mags.begin() + 19, mags.end(),
                   std::greater<>());
  const float kth = mags[19];
  int64_t kept = 0;
  for (int64_t i = 0; i < 200; ++i) {
    const float v = restored.f32()[static_cast<size_t>(i)];
    if (v != 0.0f) {
      ++kept;
      EXPECT_EQ(v, grad.f32()[static_cast<size_t>(i)]);  // exact values kept
      EXPECT_GE(std::fabs(v), kth);
    }
  }
  EXPECT_EQ(kept, 20);
}

TEST(TopK, DeltaCompressorBound) {
  // ||x - Q(x)||^2 <= (1 - k/d) ||x||^2 for Top-k.
  auto q = compressors::make_topk(0.25);
  Rng rng(1);
  Tensor grad = random_grad(7, 400);
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  Tensor diff = restored;
  ops::sub(diff.f32(), grad.f32());
  const double err2 = std::pow(static_cast<double>(ops::l2_norm(diff.f32())), 2);
  const double norm2 = std::pow(static_cast<double>(ops::l2_norm(grad.f32())), 2);
  EXPECT_LE(err2, (1.0 - 0.25) * norm2 * 1.001);
}

TEST(RandomK, SelectsExactlyKDistinct) {
  auto q = compressors::make_randomk(0.05, false);
  Rng rng(9);
  Tensor grad = random_grad(8, 1000);
  auto ct = q->compress(grad, "t", rng);
  EXPECT_EQ(ct.parts[1].numel(), 50);
  std::set<int32_t> uniq;
  for (int32_t i : ct.parts[1].i32()) uniq.insert(i);
  EXPECT_EQ(uniq.size(), 50u);
}

TEST(RandomK, DifferentRngsPickDifferentIndices) {
  auto q = compressors::make_randomk(0.05, false);
  Rng rng1(1), rng2(2);
  Tensor grad = random_grad(8, 1000);
  auto a = q->compress(grad, "t", rng1);
  auto b = q->compress(grad, "t", rng2);
  int same = 0;
  auto ai = a.parts[1].i32(), bi = b.parts[1].i32();
  for (int64_t i = 0; i < 50; ++i) same += ai[static_cast<size_t>(i)] == bi[static_cast<size_t>(i)];
  EXPECT_LT(same, 25);
}

TEST(ThresholdV, SelectsAboveThresholdOnly) {
  auto q = compressors::make_thresholdv(0.5);
  Rng rng(1);
  Tensor grad = Tensor::from(std::vector<float>{0.4f, -0.6f, 0.51f, 0.0f, -0.49f});
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  EXPECT_EQ(restored.f32()[0], 0.0f);
  EXPECT_EQ(restored.f32()[1], -0.6f);
  EXPECT_EQ(restored.f32()[2], 0.51f);
  EXPECT_EQ(restored.f32()[4], 0.0f);
}

TEST(Dgc, AccumulatesUntransmittedGradients) {
  auto q = compressors::make_dgc(0.02, 0.0);  // no momentum, pure accumulation
  Rng rng(1);
  // One huge element, many small ones; small ones must eventually ship via
  // the accumulation buffer v even though each round selects ~the top 2%.
  Tensor grad = Tensor::zeros(Shape{{100}});
  grad.f32()[0] = 100.0f;
  for (int64_t i = 1; i < 100; ++i) grad.f32()[static_cast<size_t>(i)] = 0.01f;
  double shipped_small = 0.0;
  for (int round = 0; round < 300; ++round) {
    Tensor restored = q->decompress(q->compress(grad, "t", rng));
    for (int64_t i = 1; i < 100; ++i) shipped_small += restored.f32()[static_cast<size_t>(i)];
  }
  // 300 rounds x 99 elements x 0.01 gradient mass, most of it accumulated
  // and eventually transmitted.
  EXPECT_GT(shipped_small, 100.0);
}

TEST(Adaptive, TwoValueQuantization) {
  auto q = compressors::make_adaptive(0.5);
  Rng rng(1);
  Tensor grad = Tensor::from(std::vector<float>{5, 3, -4, -2, 1, -1});
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  std::set<float> values;
  for (float v : restored.f32()) {
    if (v != 0.0f) values.insert(v);
  }
  EXPECT_LE(values.size(), 2u);  // one positive mean, one negative mean
}

TEST(SketchMl, CodesBoundedByBuckets) {
  auto q = compressors::make_sketchml(16);
  Rng rng(1);
  Tensor grad = random_grad(10, 300);
  auto ct = q->compress(grad, "t", rng);
  for (uint8_t c : ct.parts[0].u8()) EXPECT_LT(c, 16);
  // 4 bits per element + 16 representative floats.
  EXPECT_EQ(ct.ctx.wire_bits, 300u * 4 + 16u * 32);
}

TEST(SketchMl, ReconstructionPreservesOrderOfMagnitude) {
  auto q = compressors::make_sketchml(64);
  Rng rng(1);
  Tensor grad = random_grad(11, 2000);
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  Tensor diff = restored;
  ops::sub(diff.f32(), grad.f32());
  EXPECT_LT(ops::l2_norm(diff.f32()), 0.5f * ops::l2_norm(grad.f32()));
}

TEST(PowerSgd, ReconstructionIsLowRank) {
  auto q = compressors::make_powersgd(1);
  Rng rng(1);
  Tensor grad = random_grad(12, 64).reshaped(Shape{{8, 8}});
  auto ct = q->compress(grad, "t", rng);
  EXPECT_EQ(ct.parts[0].shape(), Shape({8, 1}));  // P
  EXPECT_EQ(ct.parts[1].shape(), Shape({8, 1}));  // Q
  Tensor restored = q->decompress(ct);
  // Rank-1 check: every 2x2 minor of P q^T vanishes.
  auto m = restored.f32();
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 7; ++j) {
      const float det = m[static_cast<size_t>(i * 8 + j)] * m[static_cast<size_t>((i + 1) * 8 + j + 1)] -
                        m[static_cast<size_t>(i * 8 + j + 1)] * m[static_cast<size_t>((i + 1) * 8 + j)];
      EXPECT_NEAR(det, 0.0f, 1e-3f);
    }
  }
}

TEST(PowerSgd, WarmStartConvergesOnFixedMatrix) {
  // Repeated compression of the same matrix = power iteration; the
  // reconstruction error must be non-increasing and approach the best
  // rank-r approximation.
  auto q = compressors::make_powersgd(2);
  Rng rng(1);
  Tensor grad = random_grad(13, 96).reshaped(Shape{{12, 8}});
  double first_err = -1.0, last_err = -1.0;
  for (int it = 0; it < 12; ++it) {
    Tensor restored = q->decompress(q->compress(grad, "t", rng));
    Tensor diff = restored;
    ops::sub(diff.f32(), grad.f32());
    last_err = ops::l2_norm(diff.f32());
    if (first_err < 0) first_err = last_err;
  }
  EXPECT_LT(last_err, first_err * 0.9);
}

TEST(PowerSgd, WireSizeMatchesFormula) {
  auto q = compressors::make_powersgd(4);
  Rng rng(1);
  Tensor grad = random_grad(14, 32 * 20).reshaped(Shape{{32, 20}});
  auto ct = q->compress(grad, "t", rng);
  EXPECT_EQ(ct.ctx.wire_bits, static_cast<uint64_t>((32 + 20) * 4) * 32);
}

TEST(PowerSgd, RankClampedForVectors) {
  auto q = compressors::make_powersgd(4);
  Rng rng(1);
  Tensor bias = random_grad(15, 10);  // rank-1 shape (10) -> matrix (10,1)
  Tensor restored = q->decompress(q->compress(bias, "bias", rng));
  EXPECT_EQ(restored.shape(), Shape({10}));
}

TEST(EightBit, OneByteCodesAndBoundedError) {
  auto q = compressors::make_eightbit();
  Rng rng(1);
  Tensor grad = random_grad(16, 500);
  auto ct = q->compress(grad, "t", rng);
  EXPECT_EQ(ct.ctx.wire_bits, 500u * 8 + 32);
  Tensor restored = q->decompress(ct);
  const float mx = ops::linf_norm(grad.f32());
  for (int64_t i = 0; i < 500; ++i) {
    const float a = grad.f32()[static_cast<size_t>(i)];
    const float b = restored.f32()[static_cast<size_t>(i)];
    // Minifloat relative error within a mantissa step, or the value is in
    // the sub-2^-7 denormal band that flushes to small codes.
    EXPECT_TRUE(std::fabs(a - b) <= 0.05f * std::fabs(a) + mx / 100.0f)
        << a << " vs " << b;
  }
}

TEST(Inceptionn, TagsSpanPrecisionLevels) {
  auto q = compressors::make_inceptionn();
  Rng rng(1);
  // Values across four magnitude bands relative to max = 1.0.
  Tensor grad = Tensor::from(std::vector<float>{1e-5f, 0.01f, 0.2f, 1.0f});
  Tensor restored = q->decompress(q->compress(grad, "t", rng));
  EXPECT_EQ(restored.f32()[0], 0.0f);               // dropped
  EXPECT_NEAR(restored.f32()[1], 0.01f, 0.001f);    // 8-bit band
  EXPECT_NEAR(restored.f32()[2], 0.2f, 0.001f);     // 16-bit band
  EXPECT_EQ(restored.f32()[3], 1.0f);               // exact 32-bit
}

TEST(Qsgd, CodeBitsDependOnLevels) {
  Rng rng(1);
  Tensor grad = random_grad(17, 100);
  auto q4 = compressors::make_qsgd(4);
  auto q64 = compressors::make_qsgd(64);
  // ceil(log2(5)) + 1 = 4 bits; ceil(log2(65)) + 1 = 8 bits.
  EXPECT_EQ(q4->compress(grad, "t", rng).ctx.wire_bits, 100u * 4 + 32);
  EXPECT_EQ(q64->compress(grad, "t", rng).ctx.wire_bits, 100u * 8 + 32);
}

}  // namespace
}  // namespace grace::core
