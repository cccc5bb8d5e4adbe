// Bucketed exchange scheduling (sim/scheduler.h): the bucket planner, the
// GraceWorker submit/wait split, the simulated overlap timeline, and the
// trainer-level invariants tying them together. Everything here is sized
// for the `ctest -L quick` tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/world.h"
#include "core/grace_world.h"
#include "core/probe.h"
#include "nn/module.h"
#include "sim/scheduler.h"
#include "sim/tasks.h"
#include "sim/trace.h"
#include "tensor/ops.h"

namespace grace::sim {
namespace {

// "t<i>", appended rather than `"t" + std::to_string(i)`: GCC 12 at -O3
// inlines that operator+'s char_traits copy and warns -Wrestrict on it.
std::string tensor_name(size_t i) {
  std::string name = "t";
  name += std::to_string(i);
  return name;
}

std::vector<std::string> names_for(size_t n) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) names.push_back(tensor_name(i));
  return names;
}

// ---------------------------------------------------------------------------
// plan_buckets

TEST(BucketPlan, ZeroCapIsOneBucketPerTensor) {
  const std::vector<int64_t> numels = {7, 1, 100, 3};
  const auto names = names_for(numels.size());
  const auto plan = plan_buckets(numels, names, 0);
  ASSERT_EQ(plan.size(), numels.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].id, static_cast<int32_t>(i));
    EXPECT_EQ(plan[i].first, i);
    EXPECT_EQ(plan[i].count, 1u);
    EXPECT_EQ(plan[i].numel, numels[i]);
    EXPECT_EQ(plan[i].name, names[i]);  // per-tensor: own state key
  }
}

TEST(BucketPlan, MaxCapIsOneFusedBucket) {
  const std::vector<int64_t> numels = {7, 1, 100, 3};
  const auto names = names_for(numels.size());
  const auto plan = plan_buckets(numels, names, SIZE_MAX);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].first, 0u);
  EXPECT_EQ(plan[0].count, numels.size());
  EXPECT_EQ(plan[0].numel, 111);
  EXPECT_EQ(plan[0].name, "fused");  // the legacy fusion state key
}

TEST(BucketPlan, CapClosesBucketsAndOversizedTensorStandsAlone) {
  // 10 elements = 40 bytes each; an 80-byte cap packs pairs. The 50-element
  // tensor exceeds the cap on its own and must still form a (single-tensor)
  // bucket rather than being split or dropped.
  const std::vector<int64_t> numels = {10, 10, 10, 50, 10};
  const auto names = names_for(numels.size());
  const auto plan = plan_buckets(numels, names, 80);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].count, 2u);
  EXPECT_EQ(plan[0].numel, 20);
  EXPECT_EQ(plan[0].name, "bucket0");
  EXPECT_EQ(plan[1].count, 1u);
  EXPECT_EQ(plan[1].name, names[2]);  // single-tensor bucket keeps its name
  EXPECT_EQ(plan[2].count, 1u);
  EXPECT_EQ(plan[2].numel, 50);
  EXPECT_EQ(plan[2].name, names[3]);
  EXPECT_EQ(plan[3].count, 1u);
  EXPECT_EQ(plan[3].name, names[4]);
  // Buckets tile the tensor list in order.
  size_t at = 0;
  for (const auto& b : plan) {
    EXPECT_EQ(b.first, at);
    at += b.count;
  }
  EXPECT_EQ(at, numels.size());
}

TEST(BucketPlan, RejectsMismatchedNamesAndNumels) {
  // Regression: a numels/names length skew used to trip an assert (or walk
  // off the names vector in release builds); it must throw instead so a
  // misconfigured caller fails on the main thread, not inside a worker.
  const std::vector<int64_t> numels = {7, 1, 100};
  EXPECT_THROW(plan_buckets(numels, names_for(2), 0), std::invalid_argument);
  EXPECT_THROW(plan_buckets(numels, names_for(4), 0), std::invalid_argument);
  EXPECT_NO_THROW(plan_buckets(numels, names_for(3), 0));
}

TEST(BucketPlan, PureFunctionOfInputsSoRanksAgree) {
  // Every rank plans independently from (numels, names, cap); the plans
  // must be field-for-field identical or the collectives would deadlock.
  const std::vector<int64_t> numels = {33, 2, 900, 41, 7, 7};
  const auto names = names_for(numels.size());
  for (size_t cap : {size_t{0}, size_t{256}, size_t{4096}, SIZE_MAX}) {
    const auto a = plan_buckets(numels, names, cap);
    const auto b = plan_buckets(numels, names, cap);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].name, b[i].name);
      EXPECT_EQ(a[i].first, b[i].first);
      EXPECT_EQ(a[i].count, b[i].count);
      EXPECT_EQ(a[i].numel, b[i].numel);
    }
  }
}

// ---------------------------------------------------------------------------
// GraceWorker submit/wait

// Runs `iters` rounds of two-rank gradient exchange over `numels`-shaped
// tensors, either interleaved (each submit() waited at once) or through
// the submit-all-then-wait-all schedule, and returns rank 0's aggregated
// outputs concatenated. Gradients are a deterministic function of (rank,
// iteration, tensor), so both drivers see identical inputs.
std::vector<float> run_exchanges(const std::string& spec,
                                 const std::vector<int64_t>& numels, int iters,
                                 bool split) {
  comm::World world(2);
  std::vector<float> out;
  auto worker = [&](int rank) {
    core::GraceConfig gcfg;
    gcfg.compressor_spec = spec;
    comm::NetworkModel net;
    net.n_workers = 2;
    core::GraceWorker w(gcfg, world.comm(rank), net,
                        1234 + static_cast<uint64_t>(rank));
    for (int it = 0; it < iters; ++it) {
      std::vector<Tensor> grads;
      for (size_t t = 0; t < numels.size(); ++t) {
        Tensor g = Tensor::zeros(Shape{{numels[t]}});
        auto s = g.f32();
        for (size_t i = 0; i < s.size(); ++i) {
          s[i] = 0.01f * static_cast<float>((rank + 1) * (it + 1)) *
                 static_cast<float>((i + 7 * t) % 13) -
                 0.05f * static_cast<float>(t);
        }
        grads.push_back(std::move(g));
      }
      std::vector<Tensor> aggs;
      if (split) {
        std::vector<core::ExchangeHandle> hs;
        for (size_t t = 0; t < grads.size(); ++t) {
          hs.push_back(w.submit(std::move(grads[t]), tensor_name(t)));
        }
        for (auto& h : hs) aggs.push_back(w.wait(std::move(h)));
      } else {
        for (size_t t = 0; t < grads.size(); ++t) {
          aggs.push_back(w.wait(w.submit(std::move(grads[t]), tensor_name(t))));
        }
      }
      if (rank == 0) {
        for (const Tensor& a : aggs) {
          auto s = a.f32();
          out.insert(out.end(), s.begin(), s.end());
        }
      }
    }
  };
  std::thread t1(worker, 1);
  worker(0);
  t1.join();
  return out;
}

TEST(BucketSemantics, ApplyBucketRejectsAnAggregateOfAnotherSize) {
  // A compressor's decompress decides the aggregate's size; a wrong one
  // must not reach the optimizer's spans, fused or not.
  for (const size_t fusion_bytes : {SIZE_MAX, size_t{0}}) {
    nn::Module m;
    m.register_parameter("a", Tensor::zeros(Shape{{3}}));
    m.register_parameter("b", Tensor::zeros(Shape{{2}}));
    ExchangeScheduler sched(m.parameters(), fusion_bytes);
    const BucketSpec& spec = sched.buckets().at(0);
    size_t applied = 0;
    const auto count = [&](size_t, std::span<float>, std::span<const float>) {
      ++applied;
    };
    for (const int64_t numel : {spec.numel - 1, spec.numel + 1}) {
      try {
        sched.apply_bucket(0, Tensor::zeros(Shape{{numel}}), count);
        ADD_FAILURE() << "an aggregate of " << numel << " elements passed";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(spec.name), std::string::npos)
            << e.what();
      }
    }
    EXPECT_EQ(applied, 0u);
    sched.apply_bucket(0, Tensor::zeros(Shape{{spec.numel}}), count);
    EXPECT_EQ(applied, spec.count);
  }
}

TEST(SubmitWait, SubmitAllThenWaitAllMatchesInterleavedExchange) {
  // All compressor/EF state mutation and RNG consumption happen at
  // submit(); wait() is const with respect to compressor state. A
  // submit-all-then-wait-all schedule must therefore be bit-identical to
  // interleaved wait(submit()) calls — including for stateful (EF) and
  // randomized (QSGD) compressors.
  const std::vector<int64_t> numels = {48, 7, 130};
  for (const char* spec : {"none", "topk(0.25)", "qsgd(8)", "efsignsgd"}) {
    const auto interleaved = run_exchanges(spec, numels, 3, /*split=*/false);
    const auto pipelined = run_exchanges(spec, numels, 3, /*split=*/true);
    EXPECT_EQ(interleaved, pipelined) << spec;
  }
}

// ---------------------------------------------------------------------------
// schedule_buckets timeline

TEST(Timeline, AdditiveModeChainsEveryStageAfterCompute) {
  const std::vector<BucketTiming> buckets = {
      {0.2, 0.01, 0.05, 0.02},
      {0.6, 0.03, 0.04, 0.01},
      {1.0, 0.02, 0.06, 0.03},
  };
  const double compute_end = 1.0;
  const auto s = schedule_buckets(buckets, compute_end, /*overlap=*/false);
  double expect = compute_end;
  for (const auto& t : buckets) expect += t.compress_s + t.comm_s + t.decompress_s;
  EXPECT_DOUBLE_EQ(s.exchange_end, expect);
  EXPECT_DOUBLE_EQ(s.additive_end, expect);
  // Bucket 0 starts exactly at compute end; each bucket chains after the
  // previous one's decompress.
  EXPECT_DOUBLE_EQ(s.spans[0].compress_start, compute_end);
  for (size_t b = 1; b < buckets.size(); ++b) {
    EXPECT_DOUBLE_EQ(s.spans[b].compress_start, s.spans[b - 1].end);
  }
}

TEST(Timeline, OverlapClosedFormCriticalPath) {
  // Two buckets, compute ends at 1.0. Bucket 0 is ready at 0.5, compresses
  // for 0.1, occupies the link 0.6..0.9, decompresses 0.9..0.95. Bucket 1
  // is ready at 1.0, compresses 1.0..1.1, wants the link at 1.1 (free since
  // 0.9), comm 1.1..1.3, decompress 1.3..1.35.
  const std::vector<BucketTiming> buckets = {
      {0.5, 0.1, 0.3, 0.05},
      {1.0, 0.1, 0.2, 0.05},
  };
  const auto s = schedule_buckets(buckets, 1.0, /*overlap=*/true);
  EXPECT_DOUBLE_EQ(s.spans[0].compress_start, 0.5);
  EXPECT_DOUBLE_EQ(s.spans[0].comm_start, 0.6);
  EXPECT_DOUBLE_EQ(s.spans[0].decompress_start, 0.9);
  EXPECT_DOUBLE_EQ(s.spans[0].end, 0.95);
  EXPECT_DOUBLE_EQ(s.spans[1].compress_start, 1.0);
  EXPECT_DOUBLE_EQ(s.spans[1].comm_start, 1.1);
  EXPECT_DOUBLE_EQ(s.spans[1].decompress_start, 1.3);
  EXPECT_DOUBLE_EQ(s.spans[1].end, 1.35);
  EXPECT_DOUBLE_EQ(s.exchange_end, 1.35);
  // Additive would have charged 1.0 + (0.1+0.3+0.05) + (0.1+0.2+0.05).
  EXPECT_DOUBLE_EQ(s.additive_end, 1.8);
}

TEST(Timeline, ConcurrentBucketsSerializeOnTheLink) {
  // Three instantly-ready, instantly-coded buckets all want the link at
  // once: network occupancy forces them into a back-to-back queue, so the
  // pipeline can never beat the pure-network lower bound.
  const std::vector<BucketTiming> buckets = {
      {0.0, 0.0, 0.4, 0.0},
      {0.0, 0.0, 0.3, 0.0},
      {0.0, 0.0, 0.2, 0.0},
  };
  const auto s = schedule_buckets(buckets, 1.0, /*overlap=*/true);
  EXPECT_DOUBLE_EQ(s.spans[0].comm_start, 0.0);
  EXPECT_DOUBLE_EQ(s.spans[1].comm_start, 0.4);  // queued behind bucket 0
  EXPECT_DOUBLE_EQ(s.spans[2].comm_start, 0.7);
  EXPECT_DOUBLE_EQ(s.exchange_end, std::max(1.0, 0.9));
  EXPECT_GE(s.exchange_end, 0.4 + 0.3 + 0.2);  // link occupancy floor
}

TEST(Timeline, OverlapNeverExceedsAdditiveAndRespectsFloors) {
  const std::vector<BucketTiming> buckets = {
      {0.1, 0.02, 0.10, 0.01}, {0.3, 0.01, 0.02, 0.02},
      {0.5, 0.04, 0.15, 0.01}, {0.9, 0.01, 0.01, 0.01},
      {1.0, 0.03, 0.08, 0.02},
  };
  const double compute_end = 1.0;
  const auto s = schedule_buckets(buckets, compute_end, /*overlap=*/true);
  EXPECT_LE(s.exchange_end, s.additive_end);
  // The pipeline cannot finish before the link drains, before compute ends
  // (the last bucket only becomes ready then), or before any single
  // bucket's own chain.
  double link_busy = 0.0;
  for (const BucketTiming& t : buckets) link_busy += t.comm_s;
  EXPECT_GE(s.exchange_end, link_busy);
  EXPECT_GE(s.exchange_end, compute_end);
  for (size_t b = 0; b < buckets.size(); ++b) {
    const BucketTiming& t = buckets[b];
    EXPECT_GE(s.exchange_end,
              t.ready_s + t.compress_s + t.comm_s + t.decompress_s);
    if (b > 0) {  // link serialization invariant
      EXPECT_GE(s.spans[b].comm_start,
                s.spans[b - 1].comm_start + buckets[b - 1].comm_s);
    }
  }
}

TEST(Timeline, SingleBucketReadyAtComputeEndGainsNothing) {
  // All-in-one fusion: the lone bucket's gradients are only complete when
  // backward finishes, so overlap degenerates to the additive layout.
  const std::vector<BucketTiming> buckets = {{1.0, 0.1, 0.3, 0.05}};
  const auto s = schedule_buckets(buckets, 1.0, /*overlap=*/true);
  EXPECT_DOUBLE_EQ(s.exchange_end, s.additive_end);
}

// ---------------------------------------------------------------------------
// Bucket-global compressor semantics

TEST(BucketSemantics, ShapeAwareCompressorSelectsAcrossTheBucket) {
  // Two tensors in one bucket, one with large-magnitude gradients and one
  // with tiny ones. Bucket-global Top-k(0.5) spends its entire budget on
  // the loud tensor — the quiet tensor's aggregated gradient comes back
  // all-zero, which per-tensor Top-k (fusion_bytes = 0, selection within
  // each tensor) never does.
  for (const size_t fusion_bytes : {SIZE_MAX, size_t{0}}) {
    nn::Module m;
    m.register_parameter("loud", Tensor::zeros(Shape{{8}}));
    m.register_parameter("quiet", Tensor::zeros(Shape{{8}}));
    auto& params = m.parameters();
    for (int i = 0; i < 8; ++i) {
      params[0].value->grad.f32()[i] = 100.0f + static_cast<float>(i);
      params[1].value->grad.f32()[i] = 0.001f * static_cast<float>(i + 1);
    }
    comm::World world(1);
    core::GraceConfig gcfg;
    gcfg.compressor_spec = "topk(0.5)";
    comm::NetworkModel net;
    net.n_workers = 1;
    core::GraceWorker w(gcfg, world.comm(0), net, 99);
    ExchangeScheduler sched(params, fusion_bytes);
    std::vector<float> quiet_agg;
    for (size_t b = 0; b < sched.n_buckets(); ++b) {
      auto h = sched.submit_bucket(w, b, /*instrument=*/false);
      Tensor agg = w.wait(std::move(h));
      sched.apply_bucket(b, agg,
                         [&](size_t slot, std::span<float>,
                             std::span<const float> g) {
                           if (slot == 1) quiet_agg.assign(g.begin(), g.end());
                         });
    }
    ASSERT_EQ(quiet_agg.size(), 8u);
    float quiet_mass = 0.0f;
    for (float v : quiet_agg) quiet_mass += std::abs(v);
    if (fusion_bytes == SIZE_MAX) {
      EXPECT_EQ(quiet_mass, 0.0f);  // budget went to the loud tensor
    } else {
      EXPECT_GT(quiet_mass, 0.0f);  // per-tensor selection keeps 4 of 8
    }
  }
}

// ---------------------------------------------------------------------------
// The gradient's storage through submit, the ring and apply_bucket

struct CountingProbe : core::ExchangeProbe {
  void on_sample(const core::FidelitySample&) override { ++samples; }
  int samples = 0;
};

// A module of a 3x4 and a 5-element parameter whose gradients hold
// small integers, so every mean below is exact.
void fill_grads(nn::Module& m, int rank, int step) {
  for (nn::Parameter& p : m.parameters()) {
    auto g = p.value->grad.f32();
    for (size_t i = 0; i < g.size(); ++i) {
      g[i] = static_cast<float>((rank + 1) * (step + 2) + static_cast<int>(i));
    }
  }
}

nn::Module two_tensor_module() {
  nn::Module m;
  m.register_parameter("a", Tensor::zeros(Shape{{3, 4}}));
  m.register_parameter("b", Tensor::zeros(Shape{{5}}));
  return m;
}

TEST(StorageHandOff, NoneCirculatesTheBucketStorage) {
  // none, error feedback off, no probe: the payload's part is the bucket's
  // own storage (the parameter's gradient, or the fused staging buffer),
  // which rings in place and comes back from apply_bucket as that storage,
  // shaped like the parameter, step after step.
  for (const size_t fusion_bytes : {size_t{0}, SIZE_MAX}) {
    SCOPED_TRACE(::testing::Message() << "fusion_bytes=" << fusion_bytes);
    const int n = 2;
    comm::World world(n);
    auto rank_fn = [&](int rank) {
      nn::Module m = two_tensor_module();
      auto& params = m.parameters();
      core::GraceConfig gcfg;
      gcfg.compressor_spec = "none";
      comm::NetworkModel net;
      net.n_workers = n;
      core::GraceWorker w(gcfg, world.comm(rank), net, 5);
      ExchangeScheduler sched(params, fusion_bytes);
      std::vector<const float*> storage(sched.n_buckets(), nullptr);
      for (int step = 0; step < 2; ++step) {
        fill_grads(m, rank, step);
        std::vector<const float*> grads;
        for (const nn::Parameter& p : params) {
          grads.push_back(p.value->grad.f32().data());
        }
        for (size_t b = 0; b < sched.n_buckets(); ++b) {
          const BucketSpec& spec = sched.buckets()[b];
          core::ExchangeHandle h = sched.submit_bucket(w, b, false);
          ASSERT_EQ(h.payload.parts.size(), 1u);
          const float* part = h.payload.parts[0].f32().data();
          if (spec.count == 1) {
            EXPECT_EQ(part, grads[spec.first]);
            EXPECT_TRUE(params[spec.first].value->grad.empty());
          } else {
            // The staging buffer: none of the gradients, and the same
            // storage on every step.
            for (const float* g : grads) EXPECT_NE(part, g);
            if (step == 0) storage[b] = part;
            EXPECT_EQ(part, storage[b]);
          }
          Tensor agg = w.wait(std::move(h));
          EXPECT_EQ(agg.f32().data(), part);
          size_t applied = 0;
          sched.apply_bucket(
              b, std::move(agg),
              [&](size_t slot, std::span<float>, std::span<const float> g) {
                // The mean of ranks 1 and 2's values: 1.5 * (step + 2) + i.
                for (size_t i = 0; i < g.size(); ++i) {
                  EXPECT_EQ(g[i], 1.5f * static_cast<float>(step + 2) +
                                      static_cast<float>(i))
                      << "slot " << slot << " i " << i;
                }
                ++applied;
              });
          EXPECT_EQ(applied, spec.count);
        }
        for (size_t i = 0; i < params.size(); ++i) {
          const nn::Node& v = *params[i].value;
          EXPECT_EQ(v.grad.f32().data(), grads[i]) << params[i].name;
          EXPECT_EQ(v.grad.shape(), v.data.shape()) << params[i].name;
        }
      }
    };
    std::thread other(rank_fn, 1);
    rank_fn(0);
    other.join();
  }
}

TEST(StorageHandOff, GradientsStillReadStayInPlace) {
  // A compressor that keeps no part of its input (topk, qsgd), error
  // feedback, which reads the gradient after Q to update its residual, and
  // a probe, which compares it with the reconstruction, each leave the
  // gradient where it was, bitwise unchanged, and apply_bucket leaves the
  // parameter's gradient in place.
  struct Case {
    const char* spec;
    bool error_feedback;
    bool probe;
  };
  for (const Case& c : {Case{"topk(0.5)", false, false},
                        Case{"qsgd(16)", false, false},
                        Case{"none", true, false},
                        Case{"none", false, true}}) {
    SCOPED_TRACE(::testing::Message() << c.spec << " ef=" << c.error_feedback
                                      << " probe=" << c.probe);
    comm::World world(1);
    core::GraceConfig gcfg;
    gcfg.compressor_spec = c.spec;
    gcfg.error_feedback = c.error_feedback;
    comm::NetworkModel net;
    net.n_workers = 1;
    core::GraceWorker w(gcfg, world.comm(0), net, 5);
    CountingProbe probe;
    if (c.probe) w.set_probe(&probe);

    Tensor g(DType::F32, Shape{{64}});
    Rng rng(3);
    rng.fill_normal(g.f32(), 0.0f, 1.0f);
    const Tensor before = g;
    const float* const storage = g.f32().data();
    w.wait(w.submit(std::move(g), "g"));
    ASSERT_EQ(g.f32().data(), storage);
    EXPECT_EQ(std::memcmp(g.bytes().data(), before.bytes().data(),
                          g.size_bytes()),
              0);

    for (const size_t fusion_bytes : {size_t{0}, SIZE_MAX}) {
      nn::Module m = two_tensor_module();
      auto& params = m.parameters();
      fill_grads(m, 0, 0);
      std::vector<const float*> grads;
      for (const nn::Parameter& p : params) {
        grads.push_back(p.value->grad.f32().data());
      }
      ExchangeScheduler sched(params, fusion_bytes);
      for (size_t b = 0; b < sched.n_buckets(); ++b) {
        core::ExchangeHandle h = sched.submit_bucket(w, b, false);
        sched.apply_bucket(b, w.wait(std::move(h)),
                           [](size_t, std::span<float>,
                              std::span<const float>) {});
      }
      for (size_t i = 0; i < params.size(); ++i) {
        EXPECT_EQ(params[i].value->grad.f32().data(), grads[i]);
      }
    }
    if (c.probe) {
      EXPECT_GT(probe.samples, 0);
    }
  }
}

TEST(StorageHandOff, SatOutAndSkippedRoundsKeepTheGradient) {
  // With none, a sat-out bucket ships zeros and a skipped round exchanges
  // nothing: the gradients stay in place and unchanged, and a bucket's
  // storage is never read while it is out.
  comm::World world(1);
  core::GraceConfig gcfg;
  gcfg.compressor_spec = "none";
  comm::NetworkModel net;
  net.n_workers = 1;
  core::GraceWorker w(gcfg, world.comm(0), net, 5);
  nn::Module m = two_tensor_module();
  auto& params = m.parameters();
  fill_grads(m, 0, 0);
  const std::vector<Tensor> before = {params[0].value->grad,
                                      params[1].value->grad};
  const float* const storage = params[0].value->grad.f32().data();
  ExchangeScheduler sched(params, 0);

  sched.absorb_all(w);
  core::ExchangeHandle h = sched.submit_bucket_zero(w, 0, false);
  EXPECT_NE(h.payload.parts[0].f32().data(), storage);
  sched.apply_bucket(0, w.wait(std::move(h)),
                     [](size_t, std::span<float>, std::span<const float> g) {
                       for (float v : g) EXPECT_EQ(v, 0.0f);
                     });
  EXPECT_EQ(params[0].value->grad.f32().data(), storage);
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& g = params[i].value->grad;
    ASSERT_EQ(g.size_bytes(), before[i].size_bytes());
    EXPECT_EQ(std::memcmp(g.bytes().data(), before[i].bytes().data(),
                          g.size_bytes()),
              0);
  }

  core::ExchangeHandle out = sched.submit_bucket(w, 0, false);
  EXPECT_THROW(sched.submit_bucket(w, 0, false), std::logic_error);
  EXPECT_THROW(sched.absorb_all(w), std::logic_error);
  sched.apply_bucket(0, w.wait(std::move(out)),
                     [](size_t, std::span<float>, std::span<const float>) {});
  EXPECT_EQ(params[0].value->grad.f32().data(), storage);
}

// ---------------------------------------------------------------------------
// Trainer integration

Benchmark tiny_cnn() { return make_cnn_classification(0.1); }

TrainConfig tiny_config(const Benchmark& b) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = 2;
  cfg.net.n_workers = 2;
  cfg.epochs = 2;
  return cfg;
}

// The legacy trainer exchange loop, as it existed before the scheduler
// refactor: one exchange per tensor, or one fused exchange over the
// concatenation. Replicates exactly the parameter-affecting operations of
// train() (same seeds, same epoch order, same slices, same optimizer
// slots) and returns rank 0's final parameters, so the scheduler endpoints
// can be checked bit-for-bit against the pre-refactor semantics.
std::vector<float> legacy_train_params(const Benchmark& b,
                                       const TrainConfig& cfg, bool fused) {
  comm::World world(cfg.n_workers);
  std::vector<float> final_params;
  auto worker = [&](int rank) {
    auto model = b.factory(cfg.seed);
    core::GraceWorker grace(cfg.grace, world.comm(rank), cfg.net,
                            cfg.seed * 7919ULL + static_cast<uint64_t>(rank));
    auto optimizer = optim::make_optimizer(cfg.optimizer);
    Rng batch_rng(cfg.seed * 104729ULL + static_cast<uint64_t>(rank));
    const int64_t train_n = model->train_size();
    const int64_t global_batch =
        static_cast<int64_t>(cfg.n_workers) * cfg.batch_per_worker;
    Tensor flat = Tensor::zeros(Shape{{model->module().num_parameters()}});
    std::vector<int64_t> wrapped;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      std::vector<int64_t> order(static_cast<size_t>(train_n));
      std::iota(order.begin(), order.end(), 0);
      Rng rng(cfg.seed * 1000003ULL + static_cast<uint64_t>(epoch));
      rng.shuffle(std::span<int64_t>(order));
      const int64_t iters = std::max<int64_t>(1, train_n / global_batch);
      for (int64_t it = 0; it < iters; ++it) {
        const int64_t base = it * global_batch +
                             static_cast<int64_t>(rank) * cfg.batch_per_worker;
        std::span<const int64_t> slice;
        if (base + cfg.batch_per_worker <= train_n) {
          slice = std::span<const int64_t>(
              order.data() + base, static_cast<size_t>(cfg.batch_per_worker));
        } else {
          wrapped.resize(static_cast<size_t>(cfg.batch_per_worker));
          for (int64_t j = 0; j < cfg.batch_per_worker; ++j) {
            wrapped[static_cast<size_t>(j)] =
                order[static_cast<size_t>((base + j) % train_n)];
          }
          slice = wrapped;
        }
        model->module().zero_grad();
        model->forward_backward(slice, batch_rng);
        if (fused) {
          auto f = flat.f32();
          size_t at = 0;
          for (auto& p : model->module().parameters()) {
            ops::copy(f.subspan(at, static_cast<size_t>(p.value->grad.numel())),
                      p.value->grad.f32());
            at += static_cast<size_t>(p.value->grad.numel());
          }
          Tensor agg = grace.wait(grace.submit(Tensor(flat), "fused"));
          auto a = agg.f32();
          at = 0;
          size_t slot = 0;
          for (auto& p : model->module().parameters()) {
            const auto len = static_cast<size_t>(p.value->data.numel());
            optimizer->apply(slot++, p.value->data.f32(), a.subspan(at, len));
            at += len;
          }
        } else {
          size_t slot = 0;
          for (auto& p : model->module().parameters()) {
            Tensor agg = grace.wait(grace.submit(Tensor(p.value->grad), p.name));
            optimizer->apply(slot++, p.value->data.f32(), agg.f32());
          }
        }
      }
    }
    if (rank == 0) {
      for (auto& p : model->module().parameters()) {
        auto v = p.value->data.f32();
        final_params.insert(final_params.end(), v.begin(), v.end());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int r = 1; r < cfg.n_workers; ++r) threads.emplace_back(worker, r);
  worker(0);
  for (auto& t : threads) t.join();
  return final_params;
}

TEST(SchedulerTrainer, EndpointsBitIdenticalToLegacyExchangeLoop) {
  // fusion_bytes = 0 must reproduce the deleted per-tensor branch and
  // SIZE_MAX the deleted fused branch, bit for bit — including stateful
  // error feedback and randomized quantization.
  Benchmark b = tiny_cnn();
  for (const char* spec : {"topk(0.1)", "qsgd(8)", "efsignsgd"}) {
    TrainConfig cfg = tiny_config(b);
    cfg.epochs = 1;
    cfg.grace.compressor_spec = spec;
    cfg.fusion_bytes = 0;
    EXPECT_EQ(train(b.factory, cfg).final_parameters,
              legacy_train_params(b, cfg, /*fused=*/false))
        << spec << " per-tensor";
    cfg.fusion_bytes = SIZE_MAX;
    EXPECT_EQ(train(b.factory, cfg).final_parameters,
              legacy_train_params(b, cfg, /*fused=*/true))
        << spec << " fused";
  }
}

TEST(SchedulerTrainer, MidCapBucketsStaySyncedAndCountIsIntermediate) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.1)";
  // A cap between the largest tensor and the full model lands strictly
  // between the endpoints.
  cfg.fusion_bytes = size_t{20} * 1024;
  Trace trace(cfg.n_workers);
  cfg.trace = &trace;
  RunResult run = train(b.factory, cfg);
  EXPECT_TRUE(run.replicas_in_sync);
  EXPECT_GT(run.buckets_per_iter, 1);
  EXPECT_LT(run.buckets_per_iter, run.gradient_tensors);
  // Stable bucket ids flow into the per-bucket trace summaries: every
  // bucket is exchanged once per iteration (the fused path used to funnel
  // everything into slot 0).
  ASSERT_EQ(static_cast<int64_t>(run.tensor_trace.size()),
            run.buckets_per_iter);
  const int64_t iters = static_cast<int64_t>(run.epochs.size()) *
                        run.samples_per_epoch /
                        (cfg.n_workers * cfg.batch_per_worker);
  int64_t numel_total = 0;
  for (const auto& t : run.tensor_trace) {
    EXPECT_EQ(t.exchanges, iters) << t.name;
    EXPECT_GT(t.wire_bytes, 0u) << t.name;
    numel_total += t.numel;
  }
  EXPECT_EQ(numel_total, run.model_parameters);
}

TEST(SchedulerTrainer, OverlapChangesOnlyTiming) {
  // The overlap timeline reinterprets when simulated work happens; it must
  // not change what is computed.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.1)";
  cfg.epochs = 1;
  RunResult additive = train(b.factory, cfg);
  cfg.time.overlap = true;
  RunResult overlapped = train(b.factory, cfg);
  EXPECT_EQ(additive.final_parameters, overlapped.final_parameters);
  EXPECT_EQ(additive.parameters_crc32, overlapped.parameters_crc32);
}

TEST(SchedulerTrainer, AdditiveModeIterationEqualsPhaseSum) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "qsgd(8)";
  RunResult run = train(b.factory, cfg);
  EXPECT_NEAR(run.iteration_s, run.phases.total_s(),
              1e-9 * run.phases.total_s());
  EXPECT_DOUBLE_EQ(run.overlap_saved_s, 0.0);
  EXPECT_DOUBLE_EQ(run.overlap_fraction, 0.0);
}

TEST(SchedulerTrainer, OverlapBeatsAdditiveAndRespectsLowerBounds) {
  // Per-tensor buckets on a comm-heavy config: early buckets' collectives
  // hide behind the backward tail, so the critical path lands strictly
  // below the additive sum — but never below the compute or the link
  // occupancy floor.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "topk(0.1)";
  cfg.fusion_bytes = 0;
  cfg.net.bandwidth_gbps = 1.0;  // make comm worth hiding
  cfg.time.overlap = true;
  RunResult run = train(b.factory, cfg);
  EXPECT_LT(run.iteration_s, run.phases.total_s());
  EXPECT_GT(run.overlap_saved_s, 0.0);
  EXPECT_GT(run.overlap_fraction, 0.0);
  EXPECT_LT(run.overlap_fraction, 1.0);
  EXPECT_GE(run.iteration_s, run.compute_s + run.phases.optimizer_s);
  EXPECT_GE(run.iteration_s, run.phases.comm_s + run.phases.optimizer_s);
}

TEST(SchedulerTrainer, FaultStallStillAccumulatesUnderOverlap) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.grace.compressor_spec = "none";
  cfg.time.overlap = true;
  faults::FaultSpec spec;
  spec.straggler_prob = 1.0;
  spec.straggler_rank = 1;
  spec.straggler_delay_s = 5e-3;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;
  RunResult run = train(b.factory, cfg);
  // The injected stall is pure bookkeeping and lands on top of the
  // pipeline critical path, exactly as it did on top of the additive sum.
  EXPECT_DOUBLE_EQ(run.phases.stall_s, 5e-3);
  EXPECT_GE(run.iteration_s, run.compute_s + run.phases.optimizer_s + 5e-3);
  EXPECT_TRUE(run.replicas_in_sync);
}

TEST(SchedulerTrainer, SchedulerStress) {
  // The TSan target (-DGRACE_TSAN=ON, see the top-level CMakeLists): four
  // worker threads driving bucketed submit/wait pipelines concurrently with
  // tracing, metrics, and link faults attached — every shared surface of
  // the scheduler path under one run.
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b);
  cfg.n_workers = 4;
  cfg.net.n_workers = 4;
  cfg.epochs = 1;
  cfg.grace.compressor_spec = "topk(0.1)";
  cfg.fusion_bytes = size_t{20} * 1024;
  cfg.time.overlap = true;
  faults::FaultSpec spec;
  spec.drop_prob = 0.02;
  spec.corrupt_prob = 0.02;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;
  Trace trace(cfg.n_workers);
  cfg.trace = &trace;
  MetricRegistry metrics(cfg.n_workers);
  cfg.metrics = &metrics;
  RunResult run = train(b.factory, cfg);
  EXPECT_TRUE(run.replicas_in_sync);
  EXPECT_GT(run.iteration_s, 0.0);
  // Every bucket exchange of every rank-iteration is one sample.
  const int64_t iters = static_cast<int64_t>(run.epochs.size()) *
                        run.samples_per_epoch /
                        (cfg.n_workers * cfg.batch_per_worker);
  bool saw_bucket_bytes = false;
  for (const HistogramSnapshot& h : run.metric_histograms) {
    if (h.name == "sched.bucket_bytes") {
      saw_bucket_bytes = true;
      EXPECT_GT(h.count, 0u);
      EXPECT_EQ(h.count, static_cast<uint64_t>(run.buckets_per_iter * iters *
                                               cfg.n_workers));
    }
  }
  EXPECT_TRUE(saw_bucket_bytes);
  // Overlap is visible in the trace: some bucket stage starts before the
  // iteration's compute has finished.
  bool overlapped_event = false;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.phase == Phase::Comm && ev.start_s >= 0.0 &&
        ev.start_s < run.compute_s) {
      overlapped_event = true;
    }
  }
  EXPECT_TRUE(overlapped_event);
}

}  // namespace
}  // namespace grace::sim
