// The strict JSON reader and string escaper (util/json.h): the grammar's
// accept/reject table, the nesting cap, offsets in errors, exact integers,
// source text of parsed values, and the round trips the emitters promise:
// any byte string through append_escaped, any double written at
// max_digits10, and the sim/ and faults/ emitters' documents holding
// non-finite numbers and names that need escaping.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "sim/fidelity.h"
#include "sim/metrics.h"
#include "sim/simworld.h"
#include "sim/trace.h"
#include "sim/trace_chrome.h"
#include "tensor/rng.h"
#include "util/json.h"

namespace grace::util::json {
namespace {

TEST(Json, GrammarAcceptsAndRejects) {
  const std::vector<std::string> accepted = {
      "0", "-0", "1.5e-3", "-12.25E+2", "1e5", "true", "false", "null",
      "\"\"", "\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"", "\"\\u00e9\\ud83d\\ude00\"",
      "\"\x7f\xc3\xa9\"", "[]", "{}", " \t\r\n[1, [2, {\"a\": null}]] \n",
      "{\"a\":1,\"b\":[true,false],\"A\":{}}"};
  for (const std::string& doc : accepted) {
    EXPECT_NO_THROW(parse(doc)) << doc;
  }
  const std::vector<std::string> rejected = {
      "", " ", "nan", "NaN", "inf", "-inf", "Infinity", "0x10", "+1", ".5",
      "1.", "01", "-01", "-", "1e", "1e+", "--1", "[1,]", "{\"a\":1,}", "[,1]",
      "[1] x", "[1][2]", "\"a\x01" "b\"", "\"tab\there\"", "\"\\x\"", "\"\\u12\"",
      "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"open",
      "{\"a\":1,\"a\":2}", "{\"a\":{\"b\":1},\"b\":2,\"a\":[]}", "[1 2]",
      "{\"a\":1 \"b\":2}", "{\"a\"}", "{\"a\" 1}", "{1:2}", "{a:1}", "'a'",
      "tru", "nul", "[", "{", "]", "// c\n1", "[1]\v", "\f1"};
  for (const std::string& doc : rejected) {
    EXPECT_THROW(parse(doc), std::invalid_argument) << doc;
  }
}

TEST(Json, ErrorsNameTheByteOffset) {
  const std::string trailing_comma = "[1,]";
  try {
    parse(trailing_comma);
    FAIL() << "parsed " << trailing_comma;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at offset 3"), std::string::npos)
        << e.what();
  }
  // A duplicate name is reported where its second occurrence starts.
  const std::string duplicate = "{\"a\":1, \"a\":2}";
  try {
    parse(duplicate);
    FAIL() << "parsed " << duplicate;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at offset 8"), std::string::npos)
        << e.what();
  }
  // Typed access names the value's offset.
  const std::string doc = "{\"a\": \"x\"}";
  try {
    parse(doc).at("a").number();
    FAIL() << "read a string as a number";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at offset 6"), std::string::npos)
        << e.what();
  }
}

TEST(Json, DeepNestingThrowsInsteadOfExhaustingTheStack) {
  const std::string hostile(100000, '[');
  EXPECT_THROW(parse(hostile), std::invalid_argument);
  const std::string deepest =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_NO_THROW(parse(deepest));
  const std::string too_deep =
      std::string(kMaxDepth + 1, '[') + std::string(kMaxDepth + 1, ']');
  EXPECT_THROW(parse(too_deep), std::invalid_argument);
}

TEST(Json, ObjectsKeepMemberOrderAndValuesKeepTheirText) {
  const std::string text = "{\"z\": [1, 2] , \"a\":\"x\\n\",\"m\":-0.5e1}";
  const Value doc = parse(text);
  ASSERT_EQ(doc.object().size(), 3u);
  EXPECT_EQ(doc.object()[0].first, "z");
  EXPECT_EQ(doc.object()[1].first, "a");
  EXPECT_EQ(doc.object()[2].first, "m");
  EXPECT_EQ(doc.text(), text);
  EXPECT_EQ(doc.at("z").text(), "[1, 2]");
  EXPECT_EQ(doc.at("a").text(), "\"x\\n\"");
  EXPECT_EQ(doc.at("a").string(), "x\n");
  EXPECT_EQ(doc.at("m").text(), "-0.5e1");
  EXPECT_EQ(doc.at("m").number(), -5.0);
  EXPECT_EQ(doc.at("z").array().at(1).number<int>(), 2);
  EXPECT_THROW(doc.at("missing"), std::invalid_argument);
  EXPECT_THROW(doc.at("z").at("a"), std::invalid_argument);  // not an object
  EXPECT_THROW(doc.at("a").array(), std::invalid_argument);
  EXPECT_THROW(doc.at("m").string(), std::invalid_argument);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // One, two, three and four UTF-8 bytes; the last from a surrogate pair.
  const std::string text = "\"\\u0041\\u00e9\\u20AC\\ud83d\\ude00\"";
  EXPECT_EQ(parse(text).string(), "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(Json, IntegersReadExactlyAndRejectFractionsExponentsAndRange) {
  const std::string text =
      "[18446744073709551615, -9223372036854775808, 2147483648, 2.0, 1e2, "
      "-1, 9007199254740993]";
  const Value doc = parse(text);
  const std::vector<Value>& v = doc.array();
  EXPECT_EQ(v[0].number<uint64_t>(), UINT64_MAX);
  EXPECT_THROW(v[0].number<int64_t>(), std::invalid_argument);
  EXPECT_EQ(v[1].number<int64_t>(), INT64_MIN);
  EXPECT_THROW(v[2].number<int>(), std::invalid_argument);
  EXPECT_EQ(v[2].number<int64_t>(), int64_t{1} << 31);
  EXPECT_THROW(v[3].number<int>(), std::invalid_argument);
  EXPECT_EQ(v[3].number(), 2.0);
  EXPECT_THROW(v[4].number<int>(), std::invalid_argument);
  EXPECT_THROW(v[5].number<uint64_t>(), std::invalid_argument);
  EXPECT_EQ(v[5].number<int>(), -1);
  // Above 2^53 the token keeps what a double would round away.
  EXPECT_EQ(v[6].number<uint64_t>(), (uint64_t{1} << 53) + 1);
  EXPECT_EQ(v[6].number(), 9007199254740992.0);
  // A double out of range is an error, not an infinity.
  const std::string huge = "1e999";
  EXPECT_THROW(parse(huge).number(), std::invalid_argument);
}

TEST(Json, EveryAsciiByteRoundTripsThroughAppendEscaped) {
  std::string all;
  for (int c = 0x01; c <= 0x7f; ++c) {
    const std::string one(1, static_cast<char>(c));
    std::ostringstream os;
    append_escaped(os, one);
    const std::string literal = os.str();
    EXPECT_EQ(parse(literal).string(), one) << "byte " << c;
    all += one;
  }
  std::ostringstream os;
  append_escaped(os, all);
  const std::string literal = os.str();
  EXPECT_EQ(parse(literal).string(), all);
}

TEST(Json, DoublesAtMaxDigits10ReadBackBitwise) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                -2.5e-300,
                                1e23,
                                3.141592653589793,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon()};
  Rng rng(2021);
  while (values.size() < 2000) {
    const uint64_t bits = rng.next_u64();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
  }
  for (const double d : values) {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    append_number(os, d);
    const std::string text = os.str();
    const double back = parse(text).number();
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, &d, sizeof d);
    std::memcpy(&b, &back, sizeof back);
    EXPECT_EQ(a, b) << text;
  }
}

TEST(Json, NonFiniteNumbersAreWrittenAsNull) {
  for (const double d : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::ostringstream os;
    os << '[';
    append_number(os, d);
    os << ']';
    const std::string text = os.str();
    EXPECT_EQ(text, "[null]");
    EXPECT_NO_THROW(parse(text));
  }
}

// --- Emitters over non-finite records ----------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
// A name holding both characters JSON must escape.
const std::string kQuoted = "my\"codec\\1";

// The JSON text of `v`, which must be null (a NaN or an infinity).
void expect_null(const Value& v) { EXPECT_EQ(v.text(), "null"); }

TEST(JsonEmitters, RunResultWritesNonFiniteAsNull) {
  sim::RunResult r;
  r.model = kQuoted;
  r.compressor = kQuoted;
  r.phases.forward_s = kNaN;
  r.iteration_s = kInf;
  r.throughput = -kInf;
  r.final_quality = kNaN;
  r.faults.retry_stall_s = kNaN;
  sim::TensorTraceSummary t;
  t.name = kQuoted;
  t.compress_s = kNaN;
  r.tensor_trace.push_back(t);
  sim::TensorFidelitySummary f;
  f.name = kQuoted;
  f.cosine_similarity = kNaN;
  r.fidelity.push_back(f);
  sim::HistogramSnapshot h;
  h.name = kQuoted;
  h.count = 2;
  h.buckets[3] = 2;
  h.sum = kNaN;
  h.min = -kInf;
  h.max = kInf;
  r.metric_histograms.push_back(h);

  const std::string text = sim::run_result_json(r);
  const Value doc = parse(text);
  EXPECT_EQ(doc.at("model").string(), kQuoted);
  EXPECT_EQ(doc.at("compressor").string(), kQuoted);
  expect_null(doc.at("phases").at("forward"));
  EXPECT_EQ(doc.at("phases").at("backward").number(), 0.0);
  expect_null(doc.at("iteration_seconds"));
  expect_null(doc.at("throughput"));
  expect_null(doc.at("final_quality"));
  expect_null(doc.at("faults").at("retry_stall_seconds"));
  const Value& tensor = doc.at("tensors").array().at(0);
  EXPECT_EQ(tensor.at("name").string(), kQuoted);
  expect_null(tensor.at("compress_seconds"));
  EXPECT_EQ(doc.at("fidelity").array().at(0).at("name").string(), kQuoted);
  expect_null(doc.at("fidelity").array().at(0).at("cosine_similarity"));
  const Value& hist = doc.at("metrics").at("histograms").array().at(0);
  EXPECT_EQ(hist.at("name").string(), kQuoted);
  for (const char* key : {"sum", "min", "max", "mean"}) {
    SCOPED_TRACE(key);
    expect_null(hist.at(key));
  }
}

TEST(JsonEmitters, FidelitySummariesWriteNonFiniteAsNull) {
  sim::TensorFidelitySummary f;
  f.name = kQuoted;
  f.compression_ratio = kInf;
  f.l2_rel_error = kNaN;
  f.grad_l2 = -kInf;
  const std::string text = sim::fidelity_summaries_json({f, f});
  const Value doc = parse(text);
  ASSERT_EQ(doc.array().size(), 2u);
  const Value& row = doc.array()[1];
  EXPECT_EQ(row.at("name").string(), kQuoted);
  expect_null(row.at("compression_ratio"));
  expect_null(row.at("l2_rel_error"));
  expect_null(row.at("grad_l2"));
  EXPECT_EQ(row.at("lossless_ratio").number(), 1.0);
}

TEST(JsonEmitters, ChromeTraceWritesNonFiniteAsNull) {
  sim::Trace trace(1);
  sim::TraceEvent ev;
  ev.tensor = 0;
  ev.phase = sim::Phase::Compress;
  ev.seconds = 1e-3;
  ev.start_s = 0.0;
  trace.record(0, ev);
  ev.phase = sim::Phase::Comm;
  ev.seconds = kNaN;
  ev.start_s = 1e-3;
  ev.bytes = 64;
  trace.record(0, ev);
  ev.phase = sim::Phase::Decompress;
  ev.seconds = kInf;
  ev.start_s = 2e-3;
  trace.record(0, ev);
  const std::string text = sim::trace_chrome_json(trace);
  const Value doc = parse(text);
  int null_durations = 0;
  int null_counter_stamps = 0;
  for (const Value& e : doc.at("traceEvents").array()) {
    const std::string& ph = e.at("ph").string();
    if (ph == "X" && e.at("dur").text() == "null") ++null_durations;
    if (ph == "C" && e.at("ts").text() == "null") ++null_counter_stamps;
  }
  EXPECT_EQ(null_durations, 2);       // the NaN and the infinite span
  EXPECT_EQ(null_counter_stamps, 2);  // wire bytes at NaN, in-flight at inf
}

TEST(JsonEmitters, ScaleResultEscapesNamesAndWritesNonFiniteAsNull) {
  sim::ScaleResult r;
  r.model = kQuoted;
  r.compressor = kQuoted;
  r.topology = "ring\\";
  r.fleet = "\"uniform\"";
  r.fleet_max_compute_scale = -kInf;
  r.iteration_s = kNaN;
  r.throughput = kInf;
  const std::string text = sim::scale_result_json(r);
  const Value doc = parse(text);
  EXPECT_EQ(doc.at("model").string(), kQuoted);
  EXPECT_EQ(doc.at("compressor").string(), kQuoted);
  EXPECT_EQ(doc.at("topology").string(), "ring\\");
  EXPECT_EQ(doc.at("fleet").string(), "\"uniform\"");
  expect_null(doc.at("fleet_max_compute_scale"));
  expect_null(doc.at("iteration_seconds"));
  expect_null(doc.at("throughput"));
  EXPECT_EQ(doc.at("phases").at("comm").number(), 0.0);
}

TEST(JsonEmitters, FaultSpecWritesNonFiniteAsNull) {
  faults::FaultSpec spec;
  spec.drop_prob = kNaN;
  spec.straggler_delay_s = kInf;
  spec.retry_timeout_s = -kInf;
  spec.seed = 7;
  const std::string text = faults::fault_spec_json(spec);
  const Value doc = parse(text);
  expect_null(doc.at("drop_prob"));
  expect_null(doc.at("straggler_delay_s"));
  expect_null(doc.at("retry_timeout_s"));
  EXPECT_EQ(doc.at("seed").number<uint64_t>(), 7u);
}

}  // namespace
}  // namespace grace::util::json
