// Property/fuzz testing of CompressedTensor serialization with randomized
// payload structures, of every compressor's serialize-transport-
// decompress path under randomized shapes, and seeded mutation fuzzing of
// every parser of outside bytes: wire frames, join-bootstrap frames,
// fault-plan JSON, run reports, the committed gate baselines and
// controller snapshots.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/controller.h"
#include "core/compressed.h"
#include "core/membership.h"
#include "core/registry.h"
#include "faults/fault_plan.h"
#include "sim/report.h"
#include "tensor/rng.h"
#include "util/crc32.h"
#include "util/json.h"

namespace grace::core {
namespace {

Tensor random_part(Rng& rng) {
  const auto dtype = static_cast<DType>(rng.uniform_int(3));
  const int rank = static_cast<int>(rng.uniform_int(3));
  std::vector<int64_t> dims;
  for (int i = 0; i < rank; ++i) dims.push_back(1 + rng.uniform_int(8));
  Tensor t(dtype, Shape(std::move(dims)));
  for (auto& b : t.bytes()) b = static_cast<std::byte>(rng.uniform_int(256));
  return t;
}

TEST(SerializationFuzz, RandomStructuresRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    CompressedTensor ct;
    const auto n_parts = rng.uniform_int(5);
    for (int64_t p = 0; p < n_parts; ++p) ct.parts.push_back(random_part(rng));
    std::vector<int64_t> dims;
    for (int64_t i = 0; i < rng.uniform_int(4); ++i) dims.push_back(rng.uniform_int(6));
    ct.ctx.shape = Shape(std::move(dims));
    for (int64_t i = 0; i < rng.uniform_int(6); ++i) {
      ct.ctx.scalars.push_back(static_cast<float>(rng.normal()));
    }
    for (int64_t i = 0; i < rng.uniform_int(6); ++i) {
      ct.ctx.ints.push_back(static_cast<int64_t>(rng.next_u64()));
    }
    ct.ctx.wire_bits = rng.next_u64() % (1ull << 40);

    CompressedTensor back = deserialize(serialize(ct));
    ASSERT_EQ(back.parts.size(), ct.parts.size());
    for (size_t p = 0; p < ct.parts.size(); ++p) {
      ASSERT_EQ(back.parts[p].dtype(), ct.parts[p].dtype());
      ASSERT_EQ(back.parts[p].shape(), ct.parts[p].shape());
      const auto a = ct.parts[p].bytes();
      const auto b = back.parts[p].bytes();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
    ASSERT_EQ(back.ctx, ct.ctx);
  }
}

TEST(SerializationFuzz, EverySingleBitFlipIsDetected) {
  // The CRC32 trailer (util/crc32.h) guarantees detection of every
  // single-bit error; exercise the guarantee exhaustively on a ~100-byte
  // frame — every flipped bit must make deserialize throw rather than
  // silently hand damaged parts to an aggregator.
  Rng rng(42);
  CompressedTensor ct;
  Tensor part(DType::F32, Shape({16}));
  for (auto& b : part.bytes()) b = static_cast<std::byte>(rng.uniform_int(256));
  ct.parts.push_back(std::move(part));
  ct.ctx.shape = Shape({16});
  ct.ctx.scalars = {0.5f};
  ct.ctx.wire_bits = 128;

  const Tensor blob = serialize(ct);
  ASSERT_TRUE(blob.size_bytes() > 0);
  for (size_t bit = 0; bit < blob.size_bytes() * 8; ++bit) {
    Tensor damaged = blob;
    damaged.bytes()[bit / 8] ^= std::byte{1} << (bit % 8);
    EXPECT_THROW(deserialize(damaged), std::runtime_error)
        << "undetected single-bit flip at bit " << bit;
  }
}

TEST(SerializationFuzz, EveryCompressorSurvivesRandomShapes) {
  Rng shape_rng(7);
  std::vector<std::string> roster = registered_names();
  for (const auto& name : extension_names()) roster.push_back(name);
  for (const auto& name : roster) {
    auto sender = make_compressor(name);
    auto receiver = make_compressor(name);
    Rng rng(13);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<int64_t> dims;
      const int rank = 1 + static_cast<int>(shape_rng.uniform_int(3));
      for (int i = 0; i < rank; ++i) dims.push_back(1 + shape_rng.uniform_int(12));
      Tensor grad(DType::F32, Shape(dims));
      rng.fill_normal(grad.f32(), 0.0f, 1.0f);
      auto ct = sender->compress(grad, "fuzz", rng);
      Tensor restored = receiver->decompress(deserialize(serialize(ct)));
      ASSERT_EQ(restored.shape(), grad.shape()) << name << " trial " << trial;
      for (float v : restored.f32()) {
        ASSERT_TRUE(std::isfinite(v)) << name;
      }
    }
  }
}

// --- Mutation fuzzing of outside bytes --------------------------------------
//
// Each input is damaged by one to three seeded edits: a byte overwritten,
// inserted or deleted, or the input truncated. New bytes are copied from
// elsewhere in the input half the time (keeping the input's own alphabet:
// digits, separators, plausible counts) and random otherwise. Every
// mutant must either parse or throw a std::exception; a crash, hang or
// sanitizer report fails the test. The seeds are fixed, so a failure
// replays.

// `Bytes` is a std::string or a std::vector<std::byte>.
template <typename Bytes>
Bytes mutate(Bytes bytes, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform_int(3));
  for (int e = 0; e < edits; ++e) {
    const auto n = static_cast<int64_t>(bytes.size());
    const auto at = static_cast<size_t>(rng.uniform_int(n + 1));
    auto value = static_cast<typename Bytes::value_type>(rng.uniform_int(256));
    if (n > 0 && rng.uniform_int(2) == 0) {
      value = bytes[static_cast<size_t>(rng.uniform_int(n))];
    }
    switch (rng.uniform_int(8)) {
      case 0:
        bytes.resize(at);  // truncation
        break;
      case 1:
      case 2:
        bytes.insert(bytes.begin() + static_cast<int64_t>(at), value);
        break;
      case 3:
        if (at < bytes.size()) {
          bytes.erase(bytes.begin() + static_cast<int64_t>(at));
        }
        break;
      default:
        if (at < bytes.size()) bytes[at] = value;
        break;
    }
  }
  return bytes;
}

// A mutant of a CRC-sealed frame whose trailer is re-sealed over the
// damaged body, so the parser behind the checksum sees the damage.
Tensor mutate_sealed(const Tensor& frame, Rng& rng) {
  const auto all = frame.bytes();
  std::vector<std::byte> body = mutate(
      std::vector<std::byte>(
          all.begin(), all.end() - static_cast<int64_t>(util::kFrameCrcBytes)),
      rng);
  const uint32_t crc = util::frame_crc(body);
  for (size_t i = 0; i < util::kFrameCrcBytes; ++i) {
    body.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFFu));
  }
  Tensor out(DType::U8, Shape{{static_cast<int64_t>(body.size())}});
  if (!body.empty()) std::memcpy(out.bytes().data(), body.data(), body.size());
  return out;
}

// A structure-aware mutant of a parsed frame: one edit a byte mutant
// seldom produces, reserialized so that its CRC is valid. The edit resizes
// one part along its first dimension (empty, shorter or longer), changes
// one part's dtype, or sets one ctx.ints entry to a boundary value (0, -1,
// 2^31 or a dimension of the tensor x 64). The coded-index cache rides
// along, so a coded part keeps its stream while its shape changes.
Tensor mutate_structure(CompressedTensor ct, Rng& rng) {
  const auto edit = rng.uniform_int(3);
  if (edit == 2 && !ct.ctx.ints.empty()) {
    const auto& dims = ct.ctx.shape.dims();
    const int64_t dim =
        dims.empty() ? 1 : dims[static_cast<size_t>(rng.uniform_int(
                               static_cast<int64_t>(dims.size())))];
    const int64_t boundary[] = {0, -1, int64_t{1} << 31, dim * 64};
    ct.ctx.ints[static_cast<size_t>(rng.uniform_int(
        static_cast<int64_t>(ct.ctx.ints.size())))] =
        boundary[rng.uniform_int(4)];
    return serialize(ct);
  }
  if (ct.parts.empty()) return serialize(ct);
  Tensor& part = ct.parts[static_cast<size_t>(
      rng.uniform_int(static_cast<int64_t>(ct.parts.size())))];
  DType dtype = part.dtype();
  std::vector<int64_t> dims = part.shape().dims();
  if (edit == 1) {
    dtype = static_cast<DType>((static_cast<int>(dtype) + 1 +
                                rng.uniform_int(2)) % 3);
  } else {
    if (dims.empty()) dims.push_back(1);
    const int64_t d0 = dims[0];
    switch (rng.uniform_int(3)) {
      case 0: dims[0] = 0; break;
      case 1: dims[0] = d0 > 0 ? rng.uniform_int(d0) : 1; break;
      default: dims[0] = d0 + 1 + rng.uniform_int(d0 + 8); break;
    }
  }
  // The old bytes as far as they reach, random bytes after them.
  Tensor edited(dtype, Shape(std::move(dims)));
  const auto from = part.bytes();
  auto to = edited.bytes();
  for (size_t i = 0; i < to.size(); ++i) {
    to[i] = i < from.size() ? from[i]
                            : static_cast<std::byte>(rng.uniform_int(256));
  }
  part = std::move(edited);
  return serialize(ct);
}

// Runs `parse` on `trials` mutants from `next(rng)`; every one must parse
// or throw a std::exception. Both outcomes must occur, so the mutants get
// past the first check and still reach the error paths.
template <typename Next, typename Parse>
void fuzz(uint64_t seed, int trials, Next next, Parse parse) {
  Rng rng(seed);
  int parsed = 0, rejected = 0;
  for (int t = 0; t < trials; ++t) {
    auto input = next(rng);
    try {
      parse(input);
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(MutationFuzz, CompressedTensorFrames) {
  // One frame per registered spec, and sparse parts behind the lossless
  // index coder, each given byte mutants and structure-aware mutants.
  // Every mutant that parses is also folded into an accumulator of the
  // original size, as a gather would: the decoder must throw or stay in
  // bounds.
  Rng rng(5);
  Tensor grad(DType::F32, Shape({24, 8}));
  rng.fill_normal(grad.f32(), 0.0f, 1.0f);
  std::vector<std::string> roster = registered_names();
  for (const auto& name : extension_names()) roster.push_back(name);
  ASSERT_EQ(roster.size(), 26u);
  std::vector<std::unique_ptr<Compressor>> codecs;
  std::vector<std::pair<Tensor, const Compressor*>> frames;
  for (const std::string& spec : roster) {
    codecs.push_back(make_compressor(spec));
    frames.emplace_back(serialize(codecs.back()->compress(grad, "g", rng)),
                        codecs.back().get());
  }
  const auto topk = make_compressor("topk(0.25)");
  CompressedTensor coded = topk->compress(grad, "g", rng);
  apply_wire_codec(coded, WireCodec::Rice);
  ASSERT_EQ(coded.ctx.wire_codec, WireCodec::Rice);
  frames.emplace_back(serialize(coded), topk.get());
  for (size_t f = 0; f < frames.size(); ++f) {
    SCOPED_TRACE(f < roster.size() ? roster[f] : "coded topk");
    const auto& [frame, q] = frames[f];
    auto fold = [&](const Tensor& blob) {
      const CompressedTensor ct = deserialize(blob);
      Tensor acc = Tensor::zeros(grad.shape());
      q->decompress_add(ct, acc.f32());
    };
    fuzz(100 + f, 3000, [&](Rng& r) { return mutate_sealed(frame, r); }, fold);
    // Structure-aware mutants parse unless they lie about a coded part, so
    // only the rejections must occur.
    const CompressedTensor parsed = deserialize(frame);
    Rng rng_s(300 + f);
    int rejected = 0;
    for (int t = 0; t < 300; ++t) {
      try {
        fold(mutate_structure(parsed, rng_s));
      } catch (const std::exception&) {
        ++rejected;
      }
    }
    EXPECT_GT(rejected, 0);
  }
}

// Frames whose CRC checks out but whose parts lie about their sizes: the
// sender sealed the lie, so only the decoder can catch it.
TEST(CraftedFrames, TopkIndexPastTheShapeThrows) {
  Rng rng(3);
  Tensor grad(DType::F32, Shape({64}));
  rng.fill_normal(grad.f32(), 0.0f, 1.0f);
  const auto topk = make_compressor("topk(0.25)");
  CompressedTensor ct = topk->compress(grad, "g", rng);
  ct.parts.at(1).i32()[0] = 1 << 28;
  const CompressedTensor back = deserialize(serialize(ct));
  EXPECT_THROW(topk->decompress(back), std::runtime_error);
  Tensor acc = Tensor::zeros(grad.shape());
  EXPECT_THROW(topk->decompress_add(back, acc.f32()), std::runtime_error);
}

TEST(CraftedFrames, QsgdCodesShorterThanTheShapeThrow) {
  Rng rng(4);
  Tensor grad(DType::F32, Shape({64}));
  rng.fill_normal(grad.f32(), 0.0f, 1.0f);
  const auto qsgd = make_compressor("qsgd(16)");
  CompressedTensor ct = qsgd->compress(grad, "g", rng);
  ct.parts.at(0) = Tensor(DType::U8, Shape({8}));  // 8 codes for 64 elements
  const CompressedTensor back = deserialize(serialize(ct));
  EXPECT_THROW(qsgd->decompress(back), std::runtime_error);
  Tensor acc = Tensor::zeros(grad.shape());
  EXPECT_THROW(qsgd->decompress_add(back, acc.f32()), std::runtime_error);
}

TEST(CraftedFrames, PackedPartsShorterThanTheShapeThrow) {
  // unpack_signs and unpack serve seven decoders (efsignsgd, inceptionn,
  // onebit, qsparselocal, signsgd, signum, terngrad); one frame goes
  // through each helper.
  const std::pair<const char*, int64_t> cases[] = {
      {"signsgd", 2},    // 16 signs for 64 elements
      {"terngrad", 4}};  // 16 2-bit codes for 64 elements
  for (const auto& [spec, bytes] : cases) {
    SCOPED_TRACE(spec);
    Rng rng(6);
    Tensor grad(DType::F32, Shape({64}));
    rng.fill_normal(grad.f32(), 0.0f, 1.0f);
    const auto q = make_compressor(spec);
    CompressedTensor ct = q->compress(grad, "g", rng);
    ct.parts.at(0) = Tensor(DType::U8, Shape({bytes}));
    const CompressedTensor back = deserialize(serialize(ct));
    EXPECT_THROW(q->decompress(back), std::runtime_error);
    Tensor acc = Tensor::zeros(grad.shape());
    EXPECT_THROW(q->decompress_add(back, acc.f32()), std::runtime_error);
  }
}

TEST(CraftedFrames, LyingFramesThrow) {
  // One lie per row, each in a frame sealed under a valid CRC: an index
  // past the shape, a matrix with more rows than the shape, a part shorter
  // than the shape, too few centroids or tagged values, a kept-element
  // count no shape holds, and a part of the wrong dtype or an empty
  // sketch.
  using Lie = void (*)(CompressedTensor&);
  const std::pair<const char*, Lie> cases[] = {
      {"adaptive(0.25)",
       [](CompressedTensor& ct) { ct.parts.at(0).i32()[0] = 1 << 28; }},
      {"powersgd(2)", [](CompressedTensor& ct) { ct.ctx.ints.at(0) *= 64; }},
      {"gradzip(2)", [](CompressedTensor& ct) { ct.ctx.ints.at(0) *= 64; }},
      {"atomo(2)", [](CompressedTensor& ct) { ct.ctx.ints.at(0) *= 64; }},
      {"gradiveq(2)", [](CompressedTensor& ct) { ct.ctx.ints.at(0) *= 64; }},
      {"eightbit",
       [](CompressedTensor& ct) {
         ct.parts.at(0) = Tensor(DType::U8, Shape({4}));
       }},
      {"natural",
       [](CompressedTensor& ct) {
         ct.parts.at(0) = Tensor(DType::I32, Shape({4}));
       }},
      {"lpcsvrg",
       [](CompressedTensor& ct) {
         ct.parts.at(0) = Tensor(DType::U8, Shape({4}));
       }},
      {"sketchml(16)",
       [](CompressedTensor& ct) {
         ct.parts.at(1) = Tensor::zeros(Shape({1}));
       }},
      {"inceptionn",
       [](CompressedTensor& ct) {
         ct.parts.at(1) = Tensor(DType::U8, Shape({0}));
         ct.parts.at(2) = Tensor(DType::F32, Shape({0}));
       }},
      {"qsparselocal",
       [](CompressedTensor& ct) { ct.ctx.ints.at(0) = int64_t{1} << 52; }},
      {"none",
       [](CompressedTensor& ct) {
         ct.parts.at(0) = Tensor(DType::F32, Shape({4}));
       }},
      {"threelc",
       [](CompressedTensor& ct) {
         ct.parts.at(0) = Tensor(DType::F32, Shape({4}));
       }},
      {"sketchedsgd",
       [](CompressedTensor& ct) {
         ct.parts.at(0) = Tensor(DType::U8, Shape({0, 8}));
       }}};
  for (const auto& [spec, lie] : cases) {
    SCOPED_TRACE(spec);
    Rng rng(8);
    Tensor grad(DType::F32, Shape({16, 8}));
    rng.fill_normal(grad.f32(), 0.0f, 1.0f);
    const auto q = make_compressor(spec);
    CompressedTensor ct = q->compress(grad, "g", rng);
    lie(ct);
    const CompressedTensor back = deserialize(serialize(ct));
    EXPECT_THROW(q->decompress(back), std::runtime_error);
    Tensor acc = Tensor::zeros(grad.shape());
    EXPECT_THROW(q->decompress_add(back, acc.f32()), std::runtime_error);
  }
}

TEST(MutationFuzz, BootstrapFrames) {
  const std::vector<int64_t> slots = {12, 5};
  std::vector<float> params(17);
  for (size_t i = 0; i < params.size(); ++i) {
    params[i] = 0.25f * static_cast<float>(i);
  }
  const std::vector<Tensor> residuals = {Tensor::zeros(Shape{{17}})};
  // Two f32 buffers per slot, then one i32 step count per slot.
  std::vector<Tensor> optimizer = {
      Tensor::zeros(Shape{{12}}), Tensor::zeros(Shape{{5}}),
      Tensor::zeros(Shape{{12}}), Tensor::zeros(Shape{{5}}),
      Tensor(DType::I32, Shape{{2}})};
  const Tensor frame = seal_bootstrap_frame(params, residuals, optimizer,
                                            "grace.control.v3;boundaries=0");
  ASSERT_NO_THROW(open_bootstrap_frame(frame, slots));
  fuzz(200, 3000, [&](Rng& r) { return mutate_sealed(frame, r); },
       [&](const Tensor& blob) { open_bootstrap_frame(blob, slots); });
}

TEST(MutationFuzz, FaultSpecJson) {
  faults::FaultSpec spec;
  spec.seed = 123456789;
  spec.drop_prob = 0.125;
  spec.corrupt_prob = 0.0625;
  spec.straggler_prob = 0.25;
  spec.straggler_delay_s = 2e-3;
  spec.straggler_rank = 2;
  spec.participation_rate = 0.75;
  spec.outage_prob = 0.1;
  spec.churn = {{1, 2, false}, {3, 2, true}};
  const std::string doc = faults::fault_spec_json(spec);
  fuzz(300, 3000, [&](Rng& r) { return mutate(doc, r); },
       [](const std::string& text) {
         faults::FaultPlan plan(faults::parse_fault_spec_json(text));
       });
}

TEST(MutationFuzz, RunReports) {
  // A report raising all four detectors' flags, so the mutants reach the
  // flag list as well as the metric rows. diff_reports returns a verdict
  // for every mutant, on either side of the diff; a failing verdict counts
  // as a rejection.
  sim::RunResult run;
  run.model = "synthetic";
  run.iteration_s = 1.0;
  run.phases.stall_s = 0.2;
  run.comm_messages = 100;
  run.faults.retries = 20;
  sim::TensorFidelitySummary fid;
  fid.name = "g";
  fid.samples = 5;
  fid.cosine_similarity = 0.5;
  fid.sign_agreement = 0.5;
  run.fidelity.push_back(fid);
  run.overlap_enabled = true;
  run.compress_s = 0.2;
  run.phases.comm_s = 0.3;
  run.overlap_fraction = 0.01;
  const sim::RunReport report = sim::build_run_report(run);
  ASSERT_EQ(report.flags.size(), 4u);
  const std::string doc = sim::run_report_json(report);
  ASSERT_TRUE(sim::diff_reports(doc, doc).pass);
  fuzz(500, 3000, [&](Rng& r) { return mutate(doc, r); },
       [&](const std::string& text) {
         sim::ReportDiff as_baseline;
         EXPECT_NO_THROW(as_baseline = sim::diff_reports(text, doc));
         EXPECT_NO_THROW(sim::diff_reports(doc, text));
         if (!as_baseline.pass) throw std::runtime_error("failing verdict");
       });
}

TEST(MutationFuzz, GateBaselines) {
  // The three committed baselines the regression gates read.
  uint64_t seed = 600;
  for (const char* file :
       {"BENCH_report.baseline.json", "BENCH_resilience.baseline.json",
        "BENCH_kernels.baseline.json"}) {
    SCOPED_TRACE(file);
    std::ifstream in(std::string(GRACE_SOURCE_DIR) + "/" + file);
    const std::string doc(std::istreambuf_iterator<char>(in), {});
    ASSERT_NO_THROW(util::json::parse(doc));
    fuzz(seed++, 1000, [&](Rng& r) { return mutate(doc, r); },
         [](const std::string& text) { util::json::parse(text); });
  }
}

TEST(MutationFuzz, ControllerSnapshots) {
  // Bucket b0 breaches the cosine floor in four windows of every five and
  // steps down to the lightest arm; b1 stays on the heaviest until its one
  // breach in the last window. Both end with nonzero streaks, on
  // different arms.
  control::ControlConfig cfg;
  cfg.arms = {"none", "topk(0.05)", "topk(0.01)"};
  const std::vector<std::string> buckets = {"b0", "b1"};
  const std::vector<int64_t> numels = {4096, 4096};
  control::Controller ctl(cfg, buckets, numels);
  std::vector<float> signals(ctl.signal_size());
  for (int i = 0; i < 12; ++i) {
    for (size_t b = 0; b < buckets.size(); ++b) {
      const float n = 4.0f;
      const float cos = b == 0 ? 0.5f + 0.03f * static_cast<float>(i % 5)
                               : (i == 11 ? 0.5f : 0.99f);
      float* s = signals.data() + b * control::Controller::kSignalsPerBucket;
      s[0] = n;
      s[1] = cos * n;
    }
    ctl.step(signals, i, -1);
  }
  const std::string snap = ctl.snapshot();
  ASSERT_NE(snap.find("\"buckets\":[[0,2],[2,1]]"), std::string::npos) << snap;
  fuzz(400, 2000, [&](Rng& r) { return mutate(snap, r); },
       [&](const std::string& state) {
         control::ControlConfig resumed = cfg;
         resumed.resume_state = state;
         control::Controller c(resumed, buckets, numels);
       });
}

}  // namespace
}  // namespace grace::core
