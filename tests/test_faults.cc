// Unit tests of the fault-injection subsystem (src/faults,
// docs/RESILIENCE.md): CRC32 framing, fault-plan JSON round-trip and
// validation, the pure decision functions, Mailbox deadlines, the
// injector's staged-attempt protocol through real Comm threads, and the
// count-weighted histogram merge that keeps dead ranks from skewing
// percentiles.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "comm/world.h"
#include "core/compressed.h"
#include "core/registry.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "sim/metric_registry.h"
#include "tensor/rng.h"
#include "util/crc32.h"
#include "util/simd.h"

namespace grace {
namespace {

// ---------------------------------------------------------------------------
// util/crc32.h

TEST(Crc32, KnownVector) {
  // The standard CRC-32 (IEEE 802.3) check value: crc32("123456789").
  const std::string s = "123456789";
  EXPECT_EQ(util::crc32(std::as_bytes(std::span(s.data(), s.size()))),
            0xCBF43926u);
}

TEST(Crc32, ChainedEqualsWhole) {
  const std::string s = "the quick brown fox";
  const auto whole = util::crc32(std::as_bytes(std::span(s.data(), s.size())));
  const auto head = util::crc32(std::as_bytes(std::span(s.data(), 7)));
  const auto chained = util::crc32(
      std::as_bytes(std::span(s.data() + 7, s.size() - 7)), head);
  EXPECT_EQ(chained, whole);
}

// The byte-at-a-time loop, one table lookup per byte (util::crc32 before
// slicing-by-8): the oracle both CRC paths must reproduce.
uint32_t crc32_byte_loop(std::span<const std::byte> data, uint32_t seed) {
  const auto& table = util::detail::kCrc32Tables[0];
  uint32_t c = ~seed;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

TEST(Crc32, SlicedEqualsByteLoop) {
  // At the Scalar level (slicing-by-8 alone) and the detected one (the
  // carry-less-multiply fold from 64 bytes on): every length 0..300 at
  // every offset 0..15 covers the 8-byte steps, the 16- and 64-byte folds,
  // their tails and unaligned starts; three long inputs cover many folds.
  // The seeds cover chaining, and so do splits at len / 3 and at every
  // 64-byte boundary.
  constexpr size_t kLong[] = {65535, 65536, 300001};
  std::vector<std::byte> buf(kLong[2] + 16);
  Rng rng(31);
  for (auto& b : buf) b = static_cast<std::byte>(rng.uniform_int(256));
  struct LevelReset {
    ~LevelReset() { util::simd::clear_level_for_testing(); }
  } reset;
  const auto check = [&](size_t offset, size_t len) {
    const std::span<const std::byte> data(buf.data() + offset, len);
    for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x12345678u}) {
      ASSERT_EQ(util::crc32(data, seed), crc32_byte_loop(data, seed))
          << "offset=" << offset << " len=" << len << " seed=" << seed;
    }
    const uint32_t whole = crc32_byte_loop(data, 0);
    std::vector<size_t> splits = {len / 3};
    for (size_t at = 64; at < len; at += len > 300 ? 64 * 997 : 64) {
      splits.push_back(at);
    }
    for (size_t split : splits) {
      ASSERT_EQ(util::crc32(data.subspan(split),
                            util::crc32(data.first(split))),
                whole)
          << "offset=" << offset << " len=" << len << " split=" << split;
    }
  };
  for (util::simd::Level level :
       {util::simd::Level::Scalar, util::simd::detected_level()}) {
    SCOPED_TRACE(util::simd::level_name(level));
    util::simd::set_level_for_testing(level);
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 300; ++len) check(offset, len);
    }
    for (size_t len : kLong) {
      check(0, len);
      check(7, len);
    }
  }
}

TEST(Crc32, FrameDetectsEveryFlippedBit) {
  std::vector<std::byte> body(33);
  for (size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::byte>(i * 7);
  std::vector<std::byte> frame = body;
  const uint32_t crc = util::frame_crc(body);
  for (size_t i = 0; i < util::kFrameCrcBytes; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  ASSERT_EQ(frame.size(), body.size() + util::kFrameCrcBytes);
  ASSERT_TRUE(util::frame_crc_ok(frame));

  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<std::byte> damaged = frame;
    damaged[bit / 8] ^= std::byte{1} << (bit % 8);
    EXPECT_FALSE(util::frame_crc_ok(damaged)) << "undetected flip at bit " << bit;
  }
}

TEST(Crc32, ShortFramesRejected) {
  std::vector<std::byte> tiny(3, std::byte{0});
  EXPECT_FALSE(util::frame_crc_ok(tiny));
}

// ---------------------------------------------------------------------------
// CRC-sealed CompressedTensor serialization

core::CompressedTensor sample_ct() {
  core::CompressedTensor ct;
  Rng rng(5);
  Tensor part(DType::F32, Shape({4, 3}));
  rng.fill_normal(part.f32(), 0.0f, 1.0f);
  ct.parts.push_back(std::move(part));
  ct.ctx.shape = Shape({12});
  ct.ctx.scalars = {1.5f, -2.0f};
  ct.ctx.ints = {42};
  ct.ctx.wire_bits = 96;
  return ct;
}

TEST(CompressedCrc, SerializedFramePassesCheck) {
  Tensor blob = core::serialize(sample_ct());
  EXPECT_EQ(blob.dtype(), DType::U8);
  EXPECT_TRUE(util::frame_crc_ok(blob.bytes()));
  core::CompressedTensor back = core::deserialize(blob);
  EXPECT_EQ(back.ctx, sample_ct().ctx);
}

TEST(CompressedCrc, CorruptionThrowsInsteadOfAggregating) {
  Tensor blob = core::serialize(sample_ct());
  blob.bytes()[blob.size_bytes() / 2] ^= std::byte{0x10};
  EXPECT_THROW(core::deserialize(blob), std::runtime_error);
}

TEST(CompressedCrc, TruncationThrows) {
  Tensor blob = core::serialize(sample_ct());
  Tensor shorter(DType::U8, Shape({static_cast<int64_t>(blob.size_bytes()) - 1}));
  std::copy_n(blob.bytes().begin(), shorter.size_bytes(),
              shorter.bytes().begin());
  EXPECT_THROW(core::deserialize(shorter), std::runtime_error);
}

// ---------------------------------------------------------------------------
// FaultSpec JSON

TEST(FaultSpecJson, RoundTripPreservesEveryField) {
  faults::FaultSpec s;
  s.seed = (uint64_t{1} << 60) + 1;  // above 2^53: not exact as a double
  s.drop_prob = 0.125;
  s.corrupt_prob = 0.0625;
  s.max_retries = 5;
  s.retry_timeout_s = 2.5e-4;
  s.straggler_prob = 0.3;
  s.straggler_delay_s = 1e-2;
  s.straggler_rank = 2;
  s.skip_round_prob = 0.07;
  s.crash_rank = 3;
  s.crash_epoch = 1;
  s.crash_iter = 4;

  faults::FaultSpec back = faults::parse_fault_spec_json(fault_spec_json(s));
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.drop_prob, s.drop_prob);
  EXPECT_EQ(back.corrupt_prob, s.corrupt_prob);
  EXPECT_EQ(back.max_retries, s.max_retries);
  EXPECT_EQ(back.retry_timeout_s, s.retry_timeout_s);
  EXPECT_EQ(back.straggler_prob, s.straggler_prob);
  EXPECT_EQ(back.straggler_delay_s, s.straggler_delay_s);
  EXPECT_EQ(back.straggler_rank, s.straggler_rank);
  EXPECT_EQ(back.skip_round_prob, s.skip_round_prob);
  EXPECT_EQ(back.crash_rank, s.crash_rank);
  EXPECT_EQ(back.crash_epoch, s.crash_epoch);
  EXPECT_EQ(back.crash_iter, s.crash_iter);
}

TEST(FaultSpecJson, ChurnAndParticipationRoundTrip) {
  faults::FaultSpec s;
  s.participation_rate = 0.75;
  s.outage_prob = 0.125;
  s.outage_iters = 3;
  s.outage_reconnect_stall_s = 2.5e-3;
  s.outage_rank = 2;
  s.churn.push_back({/*epoch=*/1, /*rank=*/2, /*join=*/false});
  s.churn.push_back({/*epoch=*/3, /*rank=*/2, /*join=*/true});

  faults::FaultSpec back = faults::parse_fault_spec_json(fault_spec_json(s));
  EXPECT_EQ(back.participation_rate, s.participation_rate);
  EXPECT_EQ(back.outage_prob, s.outage_prob);
  EXPECT_EQ(back.outage_iters, s.outage_iters);
  EXPECT_EQ(back.outage_reconnect_stall_s, s.outage_reconnect_stall_s);
  EXPECT_EQ(back.outage_rank, s.outage_rank);
  ASSERT_EQ(back.churn.size(), 2u);
  EXPECT_EQ(back.churn[0].epoch, 1);
  EXPECT_EQ(back.churn[0].rank, 2);
  EXPECT_FALSE(back.churn[0].join);
  EXPECT_EQ(back.churn[1].epoch, 3);
  EXPECT_TRUE(back.churn[1].join);

  // A churn-carrying spec round-trips through a plan too.
  EXPECT_TRUE(faults::FaultPlan(back).spec().has_churn());
  EXPECT_TRUE(s.has_partial_participation());
}

TEST(FaultSpecJson, AbsentKeysKeepDefaults) {
  faults::FaultSpec s = faults::parse_fault_spec_json("{\"drop_prob\": 0.5}");
  EXPECT_EQ(s.drop_prob, 0.5);
  EXPECT_EQ(s.seed, 1u);
  EXPECT_EQ(s.max_retries, 8);
  EXPECT_EQ(s.crash_rank, -1);
}

TEST(FaultSpecJson, StrictParserRejectsTypos) {
  // A misspelled key must fail loudly, not run a healthy plan.
  EXPECT_THROW(faults::parse_fault_spec_json("{\"drop_porb\": 0.5}"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_spec_json("{\"drop_prob\": 0.5} extra"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_spec_json("{\"drop_prob\": {}}"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_spec_json("not json"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_spec_json("{\"drop_prob\": 0.5"),
               std::invalid_argument);
}

TEST(FaultSpecJson, RejectsNonJsonNumbers) {
  for (const char* doc :
       {"{\"drop_prob\": nan}", "{\"drop_prob\": inf}",
        "{\"drop_prob\": -inf}", "{\"straggler_delay_s\": 0x10}",
        "{\"drop_prob\": +0.5}", "{\"drop_prob\": .5}",
        "{\"drop_prob\": 5.}", "{\"drop_prob\": 01}",
        "{\"drop_prob\": 1e}", "{\"straggler_delay_s\": 1e999}"}) {
    EXPECT_THROW(faults::parse_fault_spec_json(doc), std::invalid_argument)
        << doc;
  }
}

TEST(FaultSpecJson, IntegerKeysRejectFractionalAndOutOfRangeValues) {
  for (const char* doc :
       {"{\"max_retries\": 2.7}", "{\"max_retries\": 1e30}",
        "{\"max_retries\": 2147483648}", "{\"seed\": -1}",
        "{\"seed\": 18446744073709551616}", "{\"crash_iter\": 0.5}",
        "{\"churn\": [{\"epoch\": 1.9, \"rank\": 1, \"join\": 0}]}",
        "{\"churn\": [{\"epoch\": 1, \"rank\": 1, \"join\": 2}]}"}) {
    EXPECT_THROW(faults::parse_fault_spec_json(doc), std::invalid_argument)
        << doc;
  }
  // Integers in JSON syntax still parse, including the extremes.
  const faults::FaultSpec s = faults::parse_fault_spec_json(
      "{\"seed\": 18446744073709551615, \"max_retries\": 3, "
      "\"crash_iter\": -1}");
  EXPECT_EQ(s.seed, UINT64_MAX);
  EXPECT_EQ(s.max_retries, 3);
  EXPECT_EQ(s.crash_iter, -1);
}

// ---------------------------------------------------------------------------
// FaultPlan decision functions

TEST(FaultPlan, ValidationRejectsBadSpecs) {
  faults::FaultSpec s;
  s.drop_prob = 1.5;
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.drop_prob = 0.7;
  s.corrupt_prob = 0.7;  // sum > 1
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.max_retries = 0;
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.crash_rank = 0;  // rank 0 owns bookkeeping, must survive
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.straggler_delay_s = -1.0;
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  // Delays must be finite: a NaN or infinite stall would poison the clock.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    s = {};
    s.retry_timeout_s = bad;
    EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
    s = {};
    s.straggler_delay_s = bad;
    EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
    s = {};
    s.outage_reconnect_stall_s = bad;
    EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  }
  s = {};
  s.participation_rate = 0.0;  // nobody would ever participate
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.participation_rate = 1.5;
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.outage_prob = 0.1;
  s.outage_iters = 0;
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.outage_rank = 0;  // rank 0 owns bookkeeping, must stay connected
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.churn.push_back({/*epoch=*/0, /*rank=*/1, /*join=*/false});
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.churn.push_back({/*epoch=*/1, /*rank=*/0, /*join=*/false});
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
  s = {};
  s.crash_rank = 2;  // crash and churn model the same thing: pick one
  s.churn.push_back({/*epoch=*/1, /*rank=*/1, /*join=*/false});
  EXPECT_THROW(faults::FaultPlan{s}, std::invalid_argument);
}

TEST(FaultPlan, ParticipationAndOutageDecisionsAreDeterministic) {
  faults::FaultSpec s;
  s.seed = 99;
  s.participation_rate = 0.5;
  s.outage_prob = 0.25;
  s.outage_iters = 2;
  s.outage_rank = 2;
  const faults::FaultPlan a(s), b(s);

  int sat_out = 0, outage_iters_seen = 0;
  for (int rank = 0; rank < 4; ++rank) {
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int64_t it = 0; it < 20; ++it) {
        EXPECT_EQ(a.participates(rank, epoch, it),
                  b.participates(rank, epoch, it));
        EXPECT_EQ(a.in_outage(rank, epoch, it), b.in_outage(rank, epoch, it));
        // Rank 0 always participates and never drops out.
        if (rank == 0) {
          EXPECT_TRUE(a.participates(rank, epoch, it));
          EXPECT_FALSE(a.in_outage(rank, epoch, it));
        }
        // An outage window forces non-participation.
        if (a.in_outage(rank, epoch, it)) {
          ++outage_iters_seen;
          EXPECT_FALSE(a.participates(rank, epoch, it));
        }
        // Reconnect fires exactly on the first post-outage iteration.
        if (a.outage_reconnect(rank, epoch, it)) {
          EXPECT_TRUE(a.in_outage(rank, epoch, it - 1));
          EXPECT_FALSE(a.in_outage(rank, epoch, it));
        }
        if (!a.participates(rank, epoch, it)) ++sat_out;
      }
    }
  }
  EXPECT_GT(sat_out, 0);
  EXPECT_GT(outage_iters_seen, 0);
  // Only the pinned outage rank ever sees a window.
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int64_t it = 0; it < 20; ++it) {
      EXPECT_FALSE(a.in_outage(1, epoch, it));
      EXPECT_FALSE(a.in_outage(3, epoch, it));
    }
  }
}

TEST(FaultPlan, DecisionsAreDeterministic) {
  faults::FaultSpec s;
  s.seed = 77;
  s.drop_prob = 0.3;
  s.corrupt_prob = 0.2;
  s.straggler_prob = 0.4;
  s.straggler_delay_s = 1e-3;
  s.skip_round_prob = 0.25;
  faults::FaultPlan a(s), b(s);
  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      for (uint64_t seq = 0; seq < 50; ++seq) {
        for (int attempt = 0; attempt < 4; ++attempt) {
          ASSERT_EQ(a.attempt_outcome(src, dst, seq, attempt),
                    b.attempt_outcome(src, dst, seq, attempt));
          ASSERT_EQ(a.corrupt_bit(src, dst, seq, attempt, 1024),
                    b.corrupt_bit(src, dst, seq, attempt, 1024));
        }
      }
    }
  }
  for (int rank = 0; rank < 4; ++rank) {
    for (int e = 0; e < 3; ++e) {
      for (int64_t it = 0; it < 20; ++it) {
        ASSERT_EQ(a.straggler_delay(rank, e, it), b.straggler_delay(rank, e, it));
        ASSERT_EQ(a.round_skipped(e, it), b.round_skipped(e, it));
      }
    }
  }
}

TEST(FaultPlan, FinalAttemptAlwaysDelivers) {
  faults::FaultSpec s;
  s.drop_prob = 1.0;  // every retryable attempt fails...
  s.max_retries = 4;
  faults::FaultPlan plan(s);
  for (uint64_t seq = 0; seq < 100; ++seq) {
    for (int attempt = 0; attempt < s.max_retries; ++attempt) {
      EXPECT_EQ(plan.attempt_outcome(0, 1, seq, attempt),
                faults::kAttemptDropped);
    }
    // ...but the last allowed attempt is the guaranteed delivery.
    EXPECT_EQ(plan.attempt_outcome(0, 1, seq, s.max_retries), 0);
  }
}

TEST(FaultPlan, OutcomeFrequenciesTrackProbabilities) {
  faults::FaultSpec s;
  s.seed = 3;
  s.drop_prob = 0.25;
  s.corrupt_prob = 0.15;
  faults::FaultPlan plan(s);
  int drops = 0, corrupts = 0;
  const int n = 20000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const uint8_t o = plan.attempt_outcome(1, 2, seq, 0);
    drops += o == faults::kAttemptDropped;
    corrupts += o == faults::kAttemptCorrupt;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(corrupts) / n, 0.15, 0.02);
}

TEST(FaultPlan, CorruptBitStaysInRange) {
  faults::FaultSpec s;
  s.corrupt_prob = 1.0;
  faults::FaultPlan plan(s);
  bool seen_nonzero = false;
  for (uint64_t seq = 0; seq < 500; ++seq) {
    const uint64_t bit = plan.corrupt_bit(0, 1, seq, 0, 264);
    ASSERT_LT(bit, 264u);
    seen_nonzero |= bit != 0;
  }
  EXPECT_TRUE(seen_nonzero);
}

TEST(FaultPlan, StragglerRespectsRankPin) {
  faults::FaultSpec s;
  s.straggler_prob = 1.0;
  s.straggler_delay_s = 5e-3;
  s.straggler_rank = 1;
  faults::FaultPlan plan(s);
  for (int64_t it = 0; it < 10; ++it) {
    EXPECT_EQ(plan.straggler_delay(1, 0, it), 5e-3);
    EXPECT_EQ(plan.straggler_delay(0, 0, it), 0.0);
    EXPECT_EQ(plan.straggler_delay(2, 0, it), 0.0);
  }
}

TEST(FaultPlan, StallChargesStragglersAndReconnects) {
  faults::FaultSpec s;
  s.seed = 11;
  s.straggler_prob = 0.3;
  s.straggler_delay_s = 2e-3;
  s.outage_prob = 0.15;
  s.outage_iters = 3;
  s.outage_reconnect_stall_s = 5e-3;
  const faults::FaultPlan plan(s);
  faults::FaultCounters counted, expected;
  for (int rank = 0; rank < 4; ++rank) {
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int64_t it = 0; it < 24; ++it) {
        const double delay = plan.straggler_delay(rank, epoch, it);
        const bool reconnect = plan.outage_reconnect(rank, epoch, it);
        const double reconnect_s = reconnect ? s.outage_reconnect_stall_s : 0.0;
        ASSERT_EQ(plan.stall(rank, epoch, it, counted), delay + reconnect_s)
            << rank << "/" << epoch << "/" << it;
        if (delay > 0.0) {
          ++expected.straggler_events;
          expected.straggler_stall_s += delay;
        }
        // A window counts once, on entry.
        if (plan.in_outage(rank, epoch, it) &&
            (it == 0 || !plan.in_outage(rank, epoch, it - 1))) {
          ++expected.outages;
        }
        expected.outage_stall_s += reconnect_s;
      }
    }
  }
  EXPECT_GT(expected.straggler_events, 0u);
  EXPECT_GT(expected.outages, 0u);
  EXPECT_GT(expected.outage_stall_s, 0.0);
  EXPECT_EQ(counted.straggler_events, expected.straggler_events);
  EXPECT_EQ(counted.straggler_stall_s, expected.straggler_stall_s);
  EXPECT_EQ(counted.outages, expected.outages);
  EXPECT_EQ(counted.outage_stall_s, expected.outage_stall_s);
  // Link-layer and run-wide counters are not the plan's to charge.
  EXPECT_EQ(counted.retries, 0u);
  EXPECT_EQ(counted.sat_out_rounds, 0u);
  EXPECT_EQ(counted.rounds_skipped, 0u);
}

TEST(FaultPlan, CrashFiresAtExactCoordinates) {
  faults::FaultSpec s;
  s.crash_rank = 2;
  s.crash_epoch = 1;
  s.crash_iter = 3;
  faults::FaultPlan plan(s);
  EXPECT_TRUE(plan.spec().has_crash());
  EXPECT_FALSE(faults::FaultPlan{}.spec().has_crash());
}

// ---------------------------------------------------------------------------
// Mailbox deadlines

TEST(Mailbox, TakeForReturnsQueuedMessage) {
  comm::Mailbox box;
  box.put({0, 4, Tensor::scalar(2.5f)});
  auto msg = box.take_for(0, 4, 1.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_FLOAT_EQ(msg->payload.item(), 2.5f);
}

TEST(Mailbox, TakeForTimesOutEmpty) {
  comm::Mailbox box;
  EXPECT_FALSE(box.take_for(0, 0, 0.01).has_value());
}

TEST(Mailbox, TakeForWakesOnLatePut) {
  comm::Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.put({3, 0, Tensor::scalar(1.0f)});
  });
  auto msg = box.take_for(3, 0, 5.0);
  producer.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->src, 3);
}

#ifndef NDEBUG
TEST(MailboxDeathTest, BareTakeAssertsUnderFaultPlan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // While faults are installed every receive must carry a deadline — an
  // unbounded wait on a crashed peer must not hide inside a collective.
  EXPECT_DEATH(
      {
        comm::Mailbox box;
        box.require_deadline(true);
        box.put({0, 0, Tensor::scalar(1.0f)});
        (void)box.take(0, 0);
      },
      "deadline");
}
#endif

// ---------------------------------------------------------------------------
// FaultInjector through real Comm threads

faults::FaultCounters roundtrip_under_faults(const faults::FaultSpec& spec,
                                             int n_messages,
                                             std::vector<float>* received) {
  faults::FaultPlan plan(spec);
  comm::NetworkModel net;
  net.n_workers = 2;
  faults::FaultInjector injector(&plan, net, 2);
  comm::World world(2);
  world.install_faults(&injector);

  std::thread sender([&] {
    auto comm = world.comm(0);
    for (int i = 0; i < n_messages; ++i) {
      comm.send(1, Tensor::scalar(static_cast<float>(i)), /*tag=*/7);
    }
  });
  std::thread receiver([&] {
    auto comm = world.comm(1);
    for (int i = 0; i < n_messages; ++i) {
      received->push_back(comm.recv(0, /*tag=*/7).item());
    }
  });
  sender.join();
  receiver.join();
  return injector.totals();
}

TEST(FaultInjector, DropsNeverCorruptDeliveredPayloads) {
  faults::FaultSpec spec;
  spec.seed = 11;
  spec.drop_prob = 0.5;
  spec.max_retries = 3;
  std::vector<float> received;
  faults::FaultCounters c = roundtrip_under_faults(spec, 200, &received);

  ASSERT_EQ(received.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    ASSERT_FLOAT_EQ(received[static_cast<size_t>(i)], static_cast<float>(i));
  }
  // At 50% drop over 200 messages some attempts certainly failed, every
  // failure was detected and retried, and the retries cost simulated time.
  EXPECT_GT(c.attempts_staged, 0u);
  EXPECT_EQ(c.drops_detected, c.attempts_staged);
  EXPECT_EQ(c.corruptions_detected, 0u);
  EXPECT_EQ(c.retries, c.drops_detected);
  EXPECT_GT(c.retry_stall_s, 0.0);
  EXPECT_GT(c.retransmitted_bytes, 0u);
}

TEST(FaultInjector, IdenticalRunsProduceIdenticalCounters) {
  faults::FaultSpec spec;
  spec.seed = 21;
  spec.drop_prob = 0.3;
  std::vector<float> r1, r2;
  faults::FaultCounters a = roundtrip_under_faults(spec, 150, &r1);
  faults::FaultCounters b = roundtrip_under_faults(spec, 150, &r2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(a.attempts_staged, b.attempts_staged);
  EXPECT_EQ(a.drops_detected, b.drops_detected);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retransmitted_bytes, b.retransmitted_bytes);
  EXPECT_DOUBLE_EQ(a.retry_stall_s, b.retry_stall_s);
}

TEST(FaultInjector, CorruptionOnFramedBlobsIsDetectedByCrc) {
  faults::FaultSpec spec;
  spec.seed = 9;
  spec.corrupt_prob = 1.0;  // every retryable attempt arrives damaged
  spec.max_retries = 2;
  faults::FaultPlan plan(spec);
  comm::NetworkModel net;
  net.n_workers = 2;
  faults::FaultInjector injector(&plan, net, 2);
  comm::World world(2);
  world.install_faults(&injector);

  auto compressor = core::make_compressor("topk(0.25)");
  Rng rng(31);
  Tensor grad(DType::F32, Shape({64}));
  rng.fill_normal(grad.f32(), 0.0f, 1.0f);
  Tensor blob = core::serialize(compressor->compress(grad, "w", rng));

  const int n_messages = 20;
  std::thread sender([&] {
    auto comm = world.comm(0);
    for (int i = 0; i < n_messages; ++i) comm.send(1, blob, 3);
  });
  int decoded = 0;
  std::thread receiver([&] {
    auto comm = world.comm(1);
    for (int i = 0; i < n_messages; ++i) {
      Tensor got = comm.recv(0, 3);
      // The delivered frame is always the clean copy.
      core::CompressedTensor ct = core::deserialize(got);
      decoded += ct.parts.empty() ? 0 : 1;
    }
  });
  sender.join();
  receiver.join();

  faults::FaultCounters c = injector.totals();
  EXPECT_EQ(decoded, n_messages);
  // corrupt_prob 1, max_retries 2: exactly two damaged attempts per message,
  // each really failing its CRC check at the receiver.
  EXPECT_EQ(c.corruptions_detected, static_cast<uint64_t>(2 * n_messages));
  EXPECT_EQ(c.drops_detected, 0u);
  EXPECT_GT(c.retry_stall_s, 0.0);
}

TEST(FaultInjector, CorruptionOnUnframedPayloadDegradesToDrop) {
  // Raw float tensors carry no CRC; flipping their bits would be silently
  // aggregated, so the injector turns the corrupt draw into a drop.
  faults::FaultSpec spec;
  spec.seed = 13;
  spec.corrupt_prob = 1.0;
  spec.max_retries = 1;
  std::vector<float> received;
  faults::FaultCounters c = roundtrip_under_faults(spec, 50, &received);
  ASSERT_EQ(received.size(), 50u);
  EXPECT_EQ(c.corruptions_detected, 0u);
  EXPECT_EQ(c.drops_detected, 50u);
}

// ---------------------------------------------------------------------------
// Count-weighted histogram merge (dead-rank hardening)

TEST(HistogramMerge, DeadRankCannotSkewPercentiles) {
  sim::MetricRegistry registry(2);
  // Rank 0 lives a full run: 10000 observations around 1000ns. Rank 1 died
  // after 5 huge outliers.
  for (int i = 0; i < 10000; ++i) registry.observe(0, "lat", 1000.0);
  for (int i = 0; i < 5; ++i) registry.observe(1, "lat", 1e9);

  auto hists = registry.histograms();
  ASSERT_EQ(hists.size(), 1u);
  const sim::HistogramSnapshot& h = hists[0];
  EXPECT_EQ(h.count, 10005u);
  // Count-weighted pooling: the median is still the healthy rank's bucket.
  // Averaging per-rank medians would have reported ~5e8.
  EXPECT_LT(h.percentile(0.5), 2048.0);
  EXPECT_DOUBLE_EQ(h.max, 1e9);
  EXPECT_DOUBLE_EQ(h.min, 1000.0);
}

TEST(HistogramMerge, EmptySidesAreIdentity) {
  sim::HistogramSnapshot a;
  a.name = "m";
  a.count = 3;
  a.sum = 30.0;
  a.min = 5.0;
  a.max = 15.0;
  a.buckets[4] = 3;

  sim::HistogramSnapshot empty;
  empty.name = "m";
  sim::HistogramSnapshot merged = a;
  merged.merge(empty);
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.min, 5.0);
  EXPECT_DOUBLE_EQ(merged.max, 15.0);

  sim::HistogramSnapshot other = empty;
  other.merge(a);
  EXPECT_EQ(other.count, 3u);
  EXPECT_DOUBLE_EQ(other.sum, 30.0);
  EXPECT_DOUBLE_EQ(other.min, 5.0);
  EXPECT_DOUBLE_EQ(other.max, 15.0);
}

}  // namespace
}  // namespace grace
