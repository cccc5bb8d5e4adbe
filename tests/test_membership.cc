// Elastic membership tests (core/membership.h, docs/RESILIENCE.md): the
// MembershipSchedule view algebra, CRC-sealed join-bootstrap frames,
// TrainConfig structural validation, and the trainer-level acceptance
// contract — a 4-rank run that shrinks to 3 and grows back to 4 resumes
// via start_epoch to the same parameters_crc32 as the uninterrupted
// elastic run, heterogeneous fleets change seconds but never parameters
// or wire counters, and partial participation keeps replicas bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/fleet.h"
#include "core/membership.h"
#include "sim/tasks.h"
#include "tensor/tensor.h"

namespace grace::sim {
namespace {

Benchmark tiny_cnn() { return make_cnn_classification(0.1); }

// Stateless SGD + a batch-rng-free model: the exact-equivalence assertions
// below need resumed runs to replay the original's tail bit-for-bit.
TrainConfig tiny_config(const Benchmark& b, int n_workers) {
  TrainConfig cfg = default_config(b);
  cfg.n_workers = n_workers;
  cfg.net.n_workers = n_workers;
  cfg.batch_per_worker = 4;
  cfg.epochs = 2;
  cfg.optimizer.type = optim::OptimizerType::Sgd;
  cfg.optimizer.lr = 0.02;
  cfg.grace.compressor_spec = "none";
  return cfg;
}

std::vector<faults::ChurnEvent> leave_then_rejoin(int rank, int leave_epoch,
                                                  int join_epoch) {
  return {{leave_epoch, rank, false}, {join_epoch, rank, true}};
}

// ---------------------------------------------------------------------------
// MembershipSchedule: view algebra and validation

TEST(Membership, ScheduleBuildsOrderedViews) {
  const auto events = leave_then_rejoin(2, 1, 3);
  core::MembershipSchedule ms(4, events);
  ASSERT_EQ(ms.views().size(), 3u);
  EXPECT_TRUE(ms.elastic());

  const core::MembershipView& v0 = ms.views()[0];
  EXPECT_EQ(v0.epoch_begin, 0);
  EXPECT_EQ(v0.ranks, (std::vector<int>{0, 1, 2, 3}));

  const core::MembershipView& v1 = ms.views()[1];
  EXPECT_EQ(v1.epoch_begin, 1);
  EXPECT_EQ(v1.ranks, (std::vector<int>{0, 1, 3}));
  EXPECT_FALSE(v1.contains(2));
  // Contiguous live renumbering closes the gap the leaver opened.
  EXPECT_EQ(v1.live_rank(3), 2);
  EXPECT_EQ(v1.live_rank(2), -1);

  const core::MembershipView& v2 = ms.views()[2];
  EXPECT_EQ(v2.epoch_begin, 3);
  EXPECT_EQ(v2.ranks, (std::vector<int>{0, 1, 2, 3}));

  // view_at picks the last view whose epoch_begin <= epoch.
  EXPECT_EQ(ms.segment_at(0), 0);
  EXPECT_EQ(ms.segment_at(1), 1);
  EXPECT_EQ(ms.segment_at(2), 1);
  EXPECT_EQ(ms.segment_at(3), 2);
  EXPECT_EQ(ms.segment_at(99), 2);
  EXPECT_EQ(ms.view_at(2).size(), 3);
}

TEST(Membership, ScheduleTakesTheCrashAsAnIterationGranularLeave) {
  faults::FaultSpec spec;
  spec.crash_rank = 2;
  spec.crash_epoch = 1;
  spec.crash_iter = 3;
  const core::MembershipSchedule ms(4, spec);
  ASSERT_EQ(ms.views().size(), 2u);
  const core::MembershipView& after = ms.views()[1];
  EXPECT_EQ(after.epoch_begin, 1);
  EXPECT_EQ(after.iter_begin, 3);
  EXPECT_EQ(after.ranks, (std::vector<int>{0, 1, 3}));

  // The full fleet governs up to the crash boundary, the survivors from it
  // on — including later epochs from their first iteration.
  EXPECT_EQ(ms.segment_at(0, 99), 0);
  EXPECT_EQ(ms.segment_at(1, 2), 0);
  EXPECT_EQ(ms.segment_at(1, 3), 1);
  EXPECT_EQ(ms.segment_at(2), 1);
  EXPECT_EQ(ms.view_at(1).size(), 4);  // epoch 1's data partition
  EXPECT_EQ(ms.view_at(2).size(), 3);

  // Churn-only schedules keep iteration 0, and a crash rank outside the
  // fleet is rejected like any other leaver.
  const core::MembershipSchedule churn(4, leave_then_rejoin(2, 1, 3));
  for (const core::MembershipView& v : churn.views()) {
    EXPECT_EQ(v.iter_begin, 0);
  }
  spec.crash_rank = 4;
  EXPECT_THROW(core::MembershipSchedule(4, spec), std::invalid_argument);
}

TEST(Membership, ScheduleRejectsInconsistentPlans) {
  using core::MembershipSchedule;
  using Events = std::vector<faults::ChurnEvent>;
  // Epoch 0 transitions are meaningless (the initial view governs epoch 0).
  EXPECT_THROW(MembershipSchedule(4, Events{{0, 1, false}}),
               std::invalid_argument);
  // Rank 0 is pinned alive in every view.
  EXPECT_THROW(MembershipSchedule(4, Events{{1, 0, false}}),
               std::invalid_argument);
  // Rank outside the fleet.
  EXPECT_THROW(MembershipSchedule(4, Events{{1, 4, false}}),
               std::invalid_argument);
  EXPECT_THROW(MembershipSchedule(4, Events{{1, -1, false}}),
               std::invalid_argument);
  // Leave of an absent rank / join of a present one.
  EXPECT_THROW(
      MembershipSchedule(4, Events{{1, 2, false}, {2, 2, false}}),
      std::invalid_argument);
  EXPECT_THROW(MembershipSchedule(4, Events{{1, 2, true}}),
               std::invalid_argument);
  // A consistent plan passes.
  EXPECT_NO_THROW(
      MembershipSchedule(4, Events{{1, 2, false}, {2, 2, true}}));
}

// ---------------------------------------------------------------------------
// Join-bootstrap frames

TEST(Membership, BootstrapFrameRoundTripsParamsAndResiduals) {
  std::vector<float> params = {1.0f, -2.5f, 3.25f, 0.0f, 42.0f};
  const std::vector<float> r0 = {0.5f, -0.5f};
  const std::vector<float> r1 = {7.0f, 8.0f, 9.0f};
  std::vector<Tensor> residuals;
  residuals.push_back(Tensor::from(r0));
  residuals.push_back(Tensor::from(r1));

  // Optimizer state for two parameter slots of 2 and 3 elements: one f32
  // buffer per slot, then one i32 step count per slot (Adam's layout).
  const std::vector<int64_t> slots = {2, 3};
  const std::vector<float> v1 = {-1.0f, 0.25f, 6.0f};
  const std::vector<int32_t> steps = {4, 4};
  std::vector<Tensor> opt_state;
  opt_state.push_back(Tensor::from(r0));
  opt_state.push_back(Tensor::from(v1));
  opt_state.emplace_back(DType::I32, Shape{{2}});
  std::copy(steps.begin(), steps.end(), opt_state.back().i32().begin());

  const Tensor blob = core::seal_bootstrap_frame(
      std::span<const float>(params), std::span<const Tensor>(residuals),
      std::span<const Tensor>(opt_state));
  const core::BootstrapState st = core::open_bootstrap_frame(blob, slots);
  EXPECT_EQ(st.params, params);
  ASSERT_EQ(st.residuals.size(), 2u);
  EXPECT_EQ(st.residuals[0].f32()[1], -0.5f);
  EXPECT_EQ(st.residuals[1].f32()[2], 9.0f);
  ASSERT_EQ(st.optimizer.size(), 3u);
  EXPECT_EQ(st.optimizer[1].f32()[0], -1.0f);
  EXPECT_EQ(st.optimizer[2].i32()[1], 4);
}

TEST(Membership, BootstrapFrameRejectsStateThatMissesTheJoinersSlots) {
  const std::vector<float> params = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  std::vector<Tensor> velocity;  // one buffer over slots of 2 and 3
  velocity.push_back(Tensor::zeros(Shape{{2}}));
  velocity.push_back(Tensor::zeros(Shape{{3}}));
  const Tensor blob = core::seal_bootstrap_frame(
      std::span<const float>(params), {}, std::span<const Tensor>(velocity));
  const std::vector<int64_t> slots = {2, 3};
  EXPECT_EQ(core::open_bootstrap_frame(blob, slots).optimizer.size(), 2u);

  // Slots of other sizes, another slot count, or parameters that do not
  // fill the slots all throw like a CRC failure.
  const std::vector<int64_t> swapped = {3, 2};
  const std::vector<int64_t> three = {2, 2, 1};
  const std::vector<int64_t> longer = {2, 4};
  EXPECT_THROW(core::open_bootstrap_frame(blob, swapped), std::runtime_error);
  EXPECT_THROW(core::open_bootstrap_frame(blob, three), std::runtime_error);
  EXPECT_THROW(core::open_bootstrap_frame(blob, longer), std::runtime_error);
  EXPECT_THROW(core::open_bootstrap_frame(blob), std::runtime_error);

  // The optimizer refuses a section that does not fit its buffers.
  optim::OptimizerConfig adam;
  adam.type = optim::OptimizerType::Adam;
  EXPECT_THROW(optim::make_optimizer(adam)->install_state(velocity),
               std::runtime_error);
  EXPECT_THROW(optim::make_optimizer({})->install_state(velocity),
               std::runtime_error);
}

TEST(Membership, BootstrapFrameDetectsCorruption) {
  std::vector<float> params = {1.0f, 2.0f, 3.0f};
  const Tensor blob = core::seal_bootstrap_frame(
      std::span<const float>(params), {});
  Tensor damaged = blob;
  auto bytes = damaged.bytes();
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  EXPECT_THROW(core::open_bootstrap_frame(damaged), std::runtime_error);
}

// ---------------------------------------------------------------------------
// TrainConfig validation

TEST(Membership, TrainConfigValidateRejectsBadConfigs) {
  Benchmark b = tiny_cnn();
  {
    TrainConfig cfg = tiny_config(b, 4);
    cfg.start_epoch = -1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    TrainConfig cfg = tiny_config(b, 4);
    cfg.epochs = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    // A non-empty fleet smaller than the world cannot price every rank.
    TrainConfig cfg = tiny_config(b, 4);
    cfg.fleet = comm::FleetProfile::datacenter(2);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    // Churn + adaptive controller: parked ranks would miss the signal
    // allreduces.
    TrainConfig cfg = tiny_config(b, 4);
    faults::FaultSpec spec;
    spec.churn = leave_then_rejoin(2, 1, 3);
    faults::FaultPlan plan(spec);
    cfg.faults = &plan;
    cfg.grace.control.policy = "hysteresis";
    cfg.grace.control.arms = {"none", "topk(0.01)"};
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    // Inconsistent churn plans fail on the caller's thread.
    TrainConfig cfg = tiny_config(b, 4);
    faults::FaultSpec spec;
    spec.churn = {{1, 2, true}};  // join of a present rank
    faults::FaultPlan plan(spec);
    cfg.faults = &plan;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    // Controller resume state without an epoch offset is a schedule
    // mismatch.
    TrainConfig cfg = tiny_config(b, 4);
    cfg.grace.control.resume_state = "{\"boundary\":3}";
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(tiny_config(b, 4).validate());
}

// ---------------------------------------------------------------------------
// Elastic runs: shrink, grow, resume equivalence (the acceptance contract)

TEST(Membership, ElasticShrinkGrowKeepsReplicasInSync) {
  // The joiner adopts rank 0's optimizer state with its parameters, so a
  // stateful optimizer (momentum, moments, step counts) stays in sync too.
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.churn = leave_then_rejoin(2, 1, 3);
  faults::FaultPlan plan(spec);

  for (const optim::OptimizerType type :
       {optim::OptimizerType::Sgd, optim::OptimizerType::Momentum,
        optim::OptimizerType::Adam, optim::OptimizerType::RmsProp}) {
    SCOPED_TRACE(optim::optimizer_name(type));
    TrainConfig cfg = tiny_config(b, 4);
    cfg.epochs = 4;
    cfg.optimizer.type = type;
    cfg.grace.compressor_spec = "topk(0.1)";  // EF state in play
    cfg.faults = &plan;

    RunResult a = train(b.factory, cfg);
    EXPECT_TRUE(a.replicas_in_sync);
    EXPECT_EQ(a.faults.leaves, 1u);
    EXPECT_EQ(a.faults.joins, 1u);
    ASSERT_EQ(a.epochs.size(), 4u);

    // Deterministic replay, EF included.
    RunResult c = train(b.factory, cfg);
    EXPECT_EQ(a.final_parameters, c.final_parameters);
    EXPECT_EQ(a.parameters_crc32, c.parameters_crc32);
  }
}

TEST(Membership, ElasticResumeReproducesTheUninterruptedRunExactly) {
  // 4 ranks shrink to 3 at epoch 1, grow back to 4 at epoch 3 (the joiner
  // bootstraps from rank 0). A run staged at the epoch-2 boundary and
  // resumed via start_epoch under the same churn plan must land on the
  // same parameters_crc32 as the uninterrupted elastic run.
  Benchmark b = tiny_cnn();

  faults::FaultSpec spec;
  spec.churn = leave_then_rejoin(2, 1, 3);
  faults::FaultPlan plan(spec);

  TrainConfig cfg = tiny_config(b, 4);
  cfg.epochs = 4;
  cfg.faults = &plan;
  RunResult full = train(b.factory, cfg);
  EXPECT_TRUE(full.replicas_in_sync);

  // Stage: stop at the end of epoch 1 (mid-shrink; rank 2 is parked).
  TrainConfig stage_cfg = cfg;
  stage_cfg.epochs = 2;
  RunResult stage = train(b.factory, stage_cfg);

  // Resume epochs 2..3 from the staged weights; the same absolute-epoch
  // churn plan replays the rejoin at epoch 3 inside the resumed run.
  std::vector<float> saved = stage.final_parameters;
  ReplicaFactory resumed = [&b, saved](uint64_t seed) {
    auto model = b.factory(seed);
    size_t at = 0;
    for (auto& p : model->module().parameters()) {
      auto v = p.value->data.f32();
      std::copy_n(saved.begin() + static_cast<int64_t>(at), v.size(),
                  v.begin());
      at += v.size();
    }
    return model;
  };
  TrainConfig cont_cfg = cfg;
  cont_cfg.epochs = 2;
  cont_cfg.start_epoch = 2;
  RunResult cont = train(resumed, cont_cfg);

  ASSERT_EQ(full.epochs.size(), 4u);
  ASSERT_EQ(cont.epochs.size(), 2u);
  EXPECT_EQ(cont.epochs[0].train_loss, full.epochs[2].train_loss);
  EXPECT_EQ(cont.epochs[1].train_loss, full.epochs[3].train_loss);
  EXPECT_EQ(cont.final_parameters, full.final_parameters);
  EXPECT_EQ(cont.parameters_crc32, full.parameters_crc32);
}

// ---------------------------------------------------------------------------
// Heterogeneous fleets: seconds change, parameters and wire volume do not

TEST(Membership, ResumedRunCountsTheViewInForceAtItsStart) {
  // Resumed at epoch 1, after rank 2 left, every iteration runs on 3
  // ranks: the epoch sample accounting and the throughput count their
  // batches, not the 4-rank fleet's.
  Benchmark b = tiny_cnn();
  faults::FaultSpec spec;
  spec.churn = {{/*epoch=*/1, /*rank=*/2, /*join=*/false}};
  const faults::FaultPlan plan(spec);
  TrainConfig cfg = tiny_config(b, 4);
  cfg.faults = &plan;
  cfg.start_epoch = 1;
  cfg.epochs = 1;
  const RunResult run = train(b.factory, cfg);

  const int64_t train_n = b.factory(cfg.seed)->train_size();
  const int64_t global_batch = 3 * cfg.batch_per_worker;
  const int64_t samples = train_n / global_batch * global_batch;
  EXPECT_EQ(run.samples_per_epoch, samples);
  EXPECT_EQ(run.samples_dropped_per_epoch, train_n - samples);
  // The one epoch fits the 100-iteration throughput window.
  ASSERT_LT(samples / global_batch, 100);
  EXPECT_NEAR(run.throughput * run.total_sim_seconds,
              static_cast<double>(samples), samples * 1e-9);
}

TEST(Membership, FleetChangesSecondsButNeverParametersOrWire) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 4);
  cfg.grace.compressor_spec = "topk(0.1)";

  RunResult uniform = train(b.factory, cfg);

  std::vector<comm::LinkProfile> lp(4);
  lp[2].compute_scale = 4.0;   // one straggling device...
  lp[3].bandwidth_scale = 0.25;  // ...and one throttled uplink
  cfg.fleet = comm::FleetProfile(std::move(lp), "mixed");
  ASSERT_FALSE(cfg.fleet.uniform());
  RunResult slow = train(b.factory, cfg);

  EXPECT_EQ(slow.final_parameters, uniform.final_parameters);
  EXPECT_EQ(slow.parameters_crc32, uniform.parameters_crc32);
  EXPECT_EQ(slow.comm_messages, uniform.comm_messages);
  EXPECT_EQ(slow.comm_payload_bytes, uniform.comm_payload_bytes);
  EXPECT_EQ(slow.wire_bytes_per_iter, uniform.wire_bytes_per_iter);
  // A 4x straggler stretches the simulated iteration.
  EXPECT_GT(slow.iteration_s, uniform.iteration_s);
}

TEST(Membership, UniformNamedFleetIsBitIdenticalToNoFleet) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 4);

  RunResult bare = train(b.factory, cfg);

  cfg.fleet = comm::FleetProfile::datacenter(4);  // all-1.0 profiles
  ASSERT_TRUE(cfg.fleet.uniform());
  RunResult named = train(b.factory, cfg);

  // Parameters and wire accounting must be bit-identical. Timing is NOT
  // asserted: the thread-backed trainer prices compression from measured
  // codec wall-clock, which varies run-to-run even without a fleet.
  EXPECT_EQ(named.final_parameters, bare.final_parameters);
  EXPECT_EQ(named.parameters_crc32, bare.parameters_crc32);
  EXPECT_EQ(named.comm_messages, bare.comm_messages);
  EXPECT_EQ(named.comm_payload_bytes, bare.comm_payload_bytes);
  EXPECT_TRUE(named.replicas_in_sync);
}

// ---------------------------------------------------------------------------
// Partial participation and outage windows

TEST(Membership, PartialParticipationKeepsReplicasBitIdentical) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 4);
  cfg.grace.compressor_spec = "topk(0.1)";  // sat-out gradients ride the EF

  faults::FaultSpec spec;
  spec.seed = 23;
  spec.participation_rate = 0.5;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;

  RunResult a = train(b.factory, cfg);
  EXPECT_TRUE(a.replicas_in_sync);
  EXPECT_GT(a.faults.sat_out_rounds, 0u);

  RunResult c = train(b.factory, cfg);
  EXPECT_EQ(a.final_parameters, c.final_parameters);
  EXPECT_EQ(a.faults.sat_out_rounds, c.faults.sat_out_rounds);
}

TEST(Membership, OutageWindowsSitOutAndChargeTheReconnectStall) {
  Benchmark b = tiny_cnn();
  TrainConfig cfg = tiny_config(b, 4);
  cfg.grace.compressor_spec = "topk(0.1)";

  faults::FaultSpec spec;
  spec.seed = 29;
  spec.outage_prob = 0.3;
  spec.outage_iters = 2;
  spec.outage_rank = 1;
  spec.outage_reconnect_stall_s = 4e-3;
  faults::FaultPlan plan(spec);
  cfg.faults = &plan;

  RunResult run = train(b.factory, cfg);
  EXPECT_TRUE(run.replicas_in_sync);
  EXPECT_GT(run.faults.outages, 0u);
  EXPECT_GT(run.faults.sat_out_rounds, 0u);
  // Every counted outage charges exactly one reconnect stall when the
  // window ends inside the run.
  EXPECT_GT(run.faults.outage_stall_s, 0.0);
  EXPECT_LE(run.faults.outage_stall_s,
            static_cast<double>(run.faults.outages) * 4e-3 + 1e-12);
}

}  // namespace
}  // namespace grace::sim
