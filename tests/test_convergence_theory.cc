// Convergence properties from §III-E of the paper, checked empirically on
// a strongly convex quadratic f(x) = ||x - t||^2 (single worker):
//  - unbiased compressors (QSGD/TernGrad/Natural/unbiased-RandK/Wangni)
//    converge under a decaying step size, like vanilla SGD;
//  - biased compressors WITH error feedback converge (Karimireddy's
//    result: EF fixes any compressor);
//  - the delta-compressor contraction of Top-k guarantees per-step
//    progress proportional to k/d.
#include <gtest/gtest.h>

#include <cmath>

#include "core/grace_world.h"
#include "core/registry.h"
#include "tensor/ops.h"

namespace grace::core {
namespace {

// Runs compressed gradient descent on f(x) = ||x - t||^2 and returns
// ||x_K - t|| / ||x_0 - t||.
double quadratic_descent(const GraceConfig& cfg, int iters, double lr0,
                         bool decay_lr) {
  comm::World world(1);
  comm::NetworkModel net;
  net.n_workers = 1;
  GraceWorker worker(cfg, world.comm(0), net, 7);
  Rng rng(11);
  const int64_t d = 400;
  Tensor target(DType::F32, Shape{{d}});
  rng.fill_normal(target.f32(), 0.0f, 1.0f);
  Tensor x = Tensor::zeros(Shape{{d}});
  const float init_err = ops::l2_norm(target.f32());
  for (int k = 0; k < iters; ++k) {
    Tensor g(DType::F32, Shape{{d}});
    auto gv = g.f32();
    for (int64_t i = 0; i < d; ++i) {
      gv[static_cast<size_t>(i)] =
          2.0f * (x.f32()[static_cast<size_t>(i)] - target.f32()[static_cast<size_t>(i)]);
    }
    Tensor step = worker.wait(worker.submit(Tensor(g), "x"));
    const double lr = decay_lr ? lr0 / (1.0 + 0.05 * k) : lr0;
    ops::axpy(x.f32(), -static_cast<float>(lr), step.f32());
  }
  Tensor diff = x;
  ops::sub(diff.f32(), target.f32());
  return ops::l2_norm(diff.f32()) / init_err;
}

class UnbiasedConverges : public ::testing::TestWithParam<std::string> {};

TEST_P(UnbiasedConverges, QuadraticErrorShrinks) {
  GraceConfig cfg;
  cfg.compressor_spec = GetParam();
  cfg.error_feedback = false;
  // Unbiased dithering adds variance; a decaying step averages it out
  // (the O(1/K) SGD regime the paper cites).
  const double ratio = quadratic_descent(cfg, 400, 0.2, /*decay=*/true);
  EXPECT_LT(ratio, 0.1) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Dithering, UnbiasedConverges,
                         ::testing::Values("qsgd(16)", "terngrad", "natural",
                                           "randomk(0.25,1)", "wangni(0.3)",
                                           "lpcsvrg(5)"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

class EfFixesBias : public ::testing::TestWithParam<std::string> {};

TEST_P(EfFixesBias, BiasedCompressorConvergesWithErrorFeedback) {
  GraceConfig with_ef;
  with_ef.compressor_spec = GetParam();
  with_ef.error_feedback = true;
  // Small constant step: EF delays but does not destroy descent
  // (sparse delivery needs lr * delay * L < 1; ratio 0.25 => delay ~4).
  const double ratio = quadratic_descent(with_ef, 600, 0.05, /*decay=*/false);
  EXPECT_LT(ratio, 0.15) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Biased, EfFixesBias,
                         ::testing::Values("topk(0.25)", "randomk(0.25)",
                                           "efsignsgd", "powersgd(2)",
                                           "qsparselocal(0.25,8)"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(DeltaCompressor, TopkContractionMatchesTheory) {
  // For x with i.i.d. coordinates, E||x - topk(x)||^2 <= (1 - k/d)||x||^2,
  // with equality only for flat |x|; heavy-tailed x does much better.
  Rng rng(3);
  auto q = make_compressor("topk(0.1)");
  double err2 = 0.0, norm2 = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    Tensor x(DType::F32, Shape{{500}});
    rng.fill_normal(x.f32(), 0.0f, 1.0f);
    Tensor restored = q->decompress(q->compress(x, "t", rng));
    Tensor diff = restored;
    ops::sub(diff.f32(), x.f32());
    err2 += std::pow(static_cast<double>(ops::l2_norm(diff.f32())), 2);
    norm2 += std::pow(static_cast<double>(ops::l2_norm(x.f32())), 2);
  }
  EXPECT_LT(err2 / norm2, 1.0 - 0.1);          // the guaranteed bound
  EXPECT_LT(err2 / norm2, 1.0 - 0.25);         // Gaussian tails beat it
}

TEST(Baseline, VanillaSgdConvergesLinearRate) {
  GraceConfig cfg;
  cfg.compressor_spec = "none";
  // lr 0.2 on L=2 quadratic: contraction factor (1 - 0.4) per step.
  const double ratio = quadratic_descent(cfg, 50, 0.2, /*decay=*/false);
  EXPECT_LT(ratio, 1e-5);
}

}  // namespace
}  // namespace grace::core
