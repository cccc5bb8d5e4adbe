// Parameterized property sweeps across compression aggressiveness: wire
// size must scale with the knob, reconstruction error must shrink as more
// budget is spent, and error feedback must recover what compression drops
// for every EF-compatible method.
#include <gtest/gtest.h>

#include <cmath>

#include "core/grace_world.h"
#include "core/registry.h"
#include "tensor/ops.h"

namespace grace::core {
namespace {

Tensor random_grad(uint64_t seed, int64_t n = 4096) {
  Rng rng(seed);
  Tensor t(DType::F32, Shape{{n}});
  rng.fill_normal(t.f32(), 0.0f, 0.5f);
  return t;
}

double rel_error(Compressor& q, const Tensor& grad, Rng& rng) {
  Tensor restored = q.decompress(q.compress(grad, "t", rng));
  Tensor diff = restored;
  ops::sub(diff.f32(), grad.f32());
  return ops::l2_norm(diff.f32()) / ops::l2_norm(grad.f32());
}

// --- Sparsifier ratio sweeps ------------------------------------------

class RatioSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(RatioSweep, WireBytesScaleWithRatio) {
  Tensor grad = random_grad(1);
  Rng rng(2);
  uint64_t prev = 0;
  for (double ratio : {0.01, 0.05, 0.2, 0.5}) {
    auto q = make_compressor(GetParam() + "(" + std::to_string(ratio) + ")");
    const auto bits = q->compress(grad, "t", rng).ctx.wire_bits;
    EXPECT_GT(bits, prev) << GetParam() << " ratio " << ratio;
    prev = bits;
  }
}

TEST_P(RatioSweep, ErrorShrinksWithRatio) {
  Tensor grad = random_grad(3);
  Rng rng(4);
  double prev = 1e9;
  for (double ratio : {0.01, 0.1, 0.5, 1.0}) {
    auto q = make_compressor(GetParam() + "(" + std::to_string(ratio) + ")");
    const double err = rel_error(*q, grad, rng);
    EXPECT_LE(err, prev + 0.05) << GetParam() << " ratio " << ratio;
    prev = err;
  }
}

TEST_P(RatioSweep, FullRatioIsLossless) {
  if (GetParam() == "randomk_unbiased") return;
  Tensor grad = random_grad(5, 256);
  Rng rng(6);
  auto q = make_compressor(GetParam() + "(1.0)");
  EXPECT_LT(rel_error(*q, grad, rng), 1e-6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sparsifiers, RatioSweep,
                         ::testing::Values("topk", "randomk"));

// --- Quantizer level sweeps -------------------------------------------

TEST(LevelSweep, QsgdErrorShrinksWithLevels) {
  Tensor grad = random_grad(7);
  Rng rng(8);
  double prev = 1e9;
  for (int levels : {2, 8, 32, 128}) {
    auto q = make_compressor("qsgd(" + std::to_string(levels) + ")");
    // Average over repeats: QSGD is randomized.
    double err = 0.0;
    for (int r = 0; r < 5; ++r) err += rel_error(*q, grad, rng);
    err /= 5.0;
    EXPECT_LT(err, prev * 1.02) << levels;
    prev = err;
  }
}

TEST(LevelSweep, SketchMlErrorShrinksWithBuckets) {
  Tensor grad = random_grad(9);
  Rng rng(10);
  double coarse = 0.0, fine = 0.0;
  auto qc = make_compressor("sketchml(8)");
  auto qf = make_compressor("sketchml(128)");
  for (int r = 0; r < 5; ++r) {
    coarse += rel_error(*qc, grad, rng);
    fine += rel_error(*qf, grad, rng);
  }
  EXPECT_LT(fine, coarse);
}

TEST(LevelSweep, PowerSgdErrorShrinksWithRank) {
  Tensor grad = random_grad(11, 64 * 32).reshaped(Shape{{64, 32}});
  Rng rng(12);
  double prev = 1e9;
  for (int rank : {1, 4, 16, 32}) {
    auto q = make_compressor("powersgd(" + std::to_string(rank) + ")");
    // Warm the factor a few iterations (power iteration refines it).
    double err = 0.0;
    for (int r = 0; r < 4; ++r) err = rel_error(*q, grad, rng);
    EXPECT_LT(err, prev + 1e-4) << rank;
    prev = err;
  }
  EXPECT_LT(prev, 1e-3);  // full rank reconstructs (nearly) exactly
}

// --- Error feedback recovers dropped mass for every EF method ----------

class EfRecovery : public ::testing::TestWithParam<std::string> {};

TEST_P(EfRecovery, CumulativeTransmissionApproachesTruth) {
  comm::World world(1);
  comm::NetworkModel net;
  net.n_workers = 1;
  GraceConfig cfg;
  cfg.compressor_spec = GetParam();
  cfg.error_feedback = true;
  GraceWorker worker(cfg, world.comm(0), net, 1);

  Rng rng(13);
  Tensor g(DType::F32, Shape{{64}});
  rng.fill_normal(g.f32(), 0.8f, 0.1f);  // consistent positive signal
  Tensor shipped = Tensor::zeros(Shape{{64}});
  const int rounds = 80;
  for (int k = 0; k < rounds; ++k) {
    ops::add(shipped.f32(), worker.wait(worker.submit(Tensor(g), "g")).f32());
  }
  // Average shipped per round ~= g for every EF-compatible method.
  ops::scale(shipped.f32(), 1.0f / static_cast<float>(rounds));
  Tensor diff = shipped;
  ops::sub(diff.f32(), g.f32());
  EXPECT_LT(ops::l2_norm(diff.f32()), 0.35f * ops::l2_norm(g.f32()))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    EfMethods, EfRecovery,
    ::testing::Values("topk(0.1)", "randomk(0.1)", "thresholdv(2.0)",
                      "efsignsgd", "onebit", "eightbit", "natural",
                      "adaptive(0.1)", "powersgd(2)", "qsparselocal(0.1,8)",
                      "threelc(1)"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace grace::core
