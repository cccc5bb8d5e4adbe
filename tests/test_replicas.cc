// Model replicas: replicate() copies a model's current parameters for each
// of the five models, train() builds one model per call and copies it to
// every other rank, and the tape-free evaluate() of every model returns the
// numbers the taped one did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "models/cnn_small.h"
#include "models/lstm_lm.h"
#include "models/mlp_wide.h"
#include "models/ncf.h"
#include "models/unet_mini.h"
#include "sim/tasks.h"
#include "tensor/ops.h"

namespace grace::models {
namespace {

struct ModelCase {
  std::string name;
  sim::ReplicaFactory make;
};

// Each of the five models on a dataset small enough for the sanitizer tier,
// built once: the datasets are read-only.
const std::vector<ModelCase>& five_models() {
  static const std::vector<ModelCase> cases = [] {
    data::ImageConfig ic;
    ic.n_train = 16;
    ic.n_test = 8;
    auto img = std::make_shared<const data::ImageDataset>(data::make_images(ic));
    data::TextConfig tc;
    tc.train_tokens = 200;
    tc.test_tokens = 100;
    tc.vocab = 10;
    auto text = std::make_shared<const data::TextDataset>(data::make_text(tc));
    data::RecsysConfig rc;
    rc.n_users = 20;
    rc.n_items = 30;
    auto rec = std::make_shared<const data::RecsysDataset>(data::make_recsys(rc));
    data::SegmentationConfig sc;
    sc.n_train = 8;
    sc.n_test = 4;
    auto seg = std::make_shared<const data::SegmentationDataset>(
        data::make_segmentation(sc));
    return std::vector<ModelCase>{
        {"cnn-small", [img](uint64_t s) { return std::make_unique<CnnSmall>(img, s); }},
        {"mlp-wide", [img](uint64_t s) { return std::make_unique<MlpWide>(img, s, 32); }},
        {"lstm-lm",
         [text](uint64_t s) { return std::make_unique<LstmLm>(text, s, 8, 12, 5); }},
        {"ncf", [rec](uint64_t s) { return std::make_unique<NcfRecommender>(rec, s); }},
        {"unet-mini", [seg](uint64_t s) { return std::make_unique<UNetMini>(seg, s); }},
    };
  }();
  return cases;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()) == 0;
}

// Same parameter names, shapes, order and bits.
void expect_same_parameters(DistributedModel& a, DistributedModel& b) {
  auto& pa = a.module().parameters();
  auto& pb = b.module().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name) << i;
    EXPECT_TRUE(same_bits(pa[i].value->data, pb[i].value->data)) << pa[i].name;
  }
}

class Replicate : public ::testing::TestWithParam<size_t> {
 protected:
  const ModelCase& model_case() const { return five_models()[GetParam()]; }
};

TEST_P(Replicate, CopiesNamesShapesOrderAndBits) {
  const ModelCase& mc = model_case();
  auto original = mc.make(7);
  auto replica = original->replicate();
  auto fresh = mc.make(7);
  EXPECT_EQ(replica->name(), mc.name);
  expect_same_parameters(*replica, *fresh);
  EXPECT_EQ(replica->train_size(), fresh->train_size());
  EXPECT_EQ(replica->flops_per_sample(), fresh->flops_per_sample());
  for (auto& p : replica->module().parameters()) {
    ASSERT_EQ(p.value->grad.shape(), p.value->data.shape()) << p.name;
    EXPECT_EQ(ops::count_nonzero(p.value->grad.f32()), 0) << p.name;
  }
}

TEST_P(Replicate, OwnsItsStorage) {
  const ModelCase& mc = model_case();
  auto original = mc.make(7);
  auto replica = original->replicate();
  auto fresh = mc.make(7);
  for (auto& p : replica->module().parameters()) {
    ops::fill(p.value->data.f32(), 1.5f);
    ops::fill(p.value->grad.f32(), 2.5f);
  }
  expect_same_parameters(*original, *fresh);
  for (auto& p : original->module().parameters()) {
    EXPECT_EQ(ops::count_nonzero(p.value->grad.f32()), 0) << p.name;
  }
  // And the other way round.
  auto second = original->replicate();
  for (auto& p : original->module().parameters()) {
    ops::fill(p.value->data.f32(), -3.0f);
  }
  expect_same_parameters(*second, *fresh);
}

TEST_P(Replicate, CopiesParametersOverwrittenAfterConstruction) {
  // As the resumed factories of the crash and churn hand-off tests do:
  // build from one seed, then install other weights.
  const ModelCase& mc = model_case();
  auto original = mc.make(7);
  auto other = mc.make(8);
  auto& po = original->module().parameters();
  auto& px = other->module().parameters();
  for (size_t i = 0; i < po.size(); ++i) {
    ops::copy(po[i].value->data.f32(), px[i].value->data.f32());
  }
  auto replica = original->replicate();
  expect_same_parameters(*replica, *other);
}

TEST_P(Replicate, SameLossAndGradientsAsTheOriginal) {
  const ModelCase& mc = model_case();
  auto original = mc.make(7);
  auto replica = original->replicate();
  const std::vector<int64_t> batch{3, 0, 5, 1};
  Rng ra(11), rb(11);  // NCF draws its negatives from the batch rng
  original->module().zero_grad();
  replica->module().zero_grad();
  const float la = original->forward_backward(batch, ra);
  const float lb = replica->forward_backward(batch, rb);
  EXPECT_EQ(std::memcmp(&la, &lb, sizeof la), 0) << la << " vs " << lb;
  auto& pa = original->module().parameters();
  auto& pb = replica->module().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(same_bits(pa[i].value->grad, pb[i].value->grad)) << pa[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(FiveModels, Replicate, ::testing::Range<size_t>(0, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           std::string n = five_models()[info.param].name;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- One build per train() call -------------------------------------------

// Wraps a factory and counts its calls.
struct CountingFactory {
  std::shared_ptr<int> calls = std::make_shared<int>(0);
  sim::ReplicaFactory factory;

  explicit CountingFactory(const sim::ReplicaFactory& inner)
      : factory([inner, calls = calls](uint64_t seed) {
          ++*calls;
          return inner(seed);
        }) {}
};

sim::TrainConfig tiny_config(const sim::Benchmark& b, int n_workers) {
  sim::TrainConfig cfg = sim::default_config(b);
  cfg.n_workers = n_workers;
  cfg.net.n_workers = n_workers;
  cfg.batch_per_worker = 4;
  cfg.epochs = 1;
  cfg.grace.compressor_spec = "topk(0.1)";
  return cfg;
}

TEST(TrainReplicas, OneFactoryCallPerRun) {
  const sim::Benchmark b = sim::make_cnn_classification(0.1);
  for (const int n : {1, 2, 4}) {
    CountingFactory counting(b.factory);
    const sim::RunResult run = sim::train(counting.factory, tiny_config(b, n));
    EXPECT_EQ(*counting.calls, 1) << n << " workers";
    EXPECT_TRUE(run.replicas_in_sync) << n << " workers";
  }
}

TEST(TrainReplicas, OneFactoryCallPerRunUnderChurnAndCrash) {
  const sim::Benchmark b = sim::make_cnn_classification(0.1);
  faults::FaultSpec churn;
  churn.churn = {{.epoch = 1, .rank = 2, .join = false},
                 {.epoch = 2, .rank = 2, .join = true}};
  faults::FaultSpec crash;
  crash.crash_rank = 2;
  crash.crash_epoch = 1;
  crash.crash_iter = 2;
  for (const faults::FaultSpec& spec : {churn, crash}) {
    const faults::FaultPlan plan(spec);
    sim::TrainConfig cfg = tiny_config(b, 4);
    cfg.epochs = 3;
    cfg.faults = &plan;
    CountingFactory counting(b.factory);
    const sim::RunResult run = sim::train(counting.factory, cfg);
    EXPECT_EQ(*counting.calls, 1);
    EXPECT_TRUE(run.replicas_in_sync);
    EXPECT_EQ(run.faults.joins + run.faults.crashed_ranks, 1u);
  }
}

// --- Evaluation without a tape ---------------------------------------------

// evaluate() of each model at a fixed seed, recorded with the taped
// evaluation that NoGrad replaced: quality and loss, bit for bit. The test
// splits cover whole and partial batches (CnnSmall 64, MlpWide 128, UNetMini
// 32 samples per call).
TEST(EvaluateWithoutATape, ReturnsTheTapedResultsBitwise) {
  data::ImageConfig ic;
  ic.n_train = 16;
  ic.n_test = 150;
  auto img = std::make_shared<const data::ImageDataset>(data::make_images(ic));
  data::TextConfig tc;
  tc.train_tokens = 200;
  tc.test_tokens = 150;
  tc.vocab = 10;
  auto text = std::make_shared<const data::TextDataset>(data::make_text(tc));
  data::RecsysConfig rc;
  rc.n_users = 20;
  rc.n_items = 30;
  auto rec = std::make_shared<const data::RecsysDataset>(data::make_recsys(rc));
  data::SegmentationConfig sc;
  sc.n_train = 4;
  sc.n_test = 40;
  auto seg = std::make_shared<const data::SegmentationDataset>(
      data::make_segmentation(sc));

  struct Pin {
    const char* model;
    EvalResult got, want;
  };
  const Pin pins[] = {
      {"cnn-small", CnnSmall(img, 3).evaluate(),
       {0x1.7e4b17e4b17e5p-4, 0x1.ab7b57ddddddep+1}},
      {"mlp-wide", MlpWide(img, 3, 64).evaluate(),
       {0x1.62fc962fc963p-4, 0x1.74bdbf40da741p+1}},
      {"lstm-lm", LstmLm(text, 3, 8, 12, 5).evaluate(),
       {-0x1.417718d793571p+3, 0x1.2750cep+1}},
      {"ncf", NcfRecommender(rec, 3).evaluate(), {0x1p-2, 0x1.b2829da666666p-7}},
      {"unet-mini", UNetMini(seg, 3).evaluate(),
       {0x1.18365bae767a5p-3, 0x1.37b77ep-1}},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(std::memcmp(&p.got.quality, &p.want.quality, sizeof(double)), 0)
        << p.model << " quality " << p.got.quality;
    EXPECT_EQ(std::memcmp(&p.got.loss, &p.want.loss, sizeof(double)), 0)
        << p.model << " loss " << p.got.loss;
  }
}

}  // namespace
}  // namespace grace::models
