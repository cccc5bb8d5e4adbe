#include "control/controller.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/crc32.h"
#include "util/json.h"

namespace grace::control {
namespace {

// Identity of a bucket plan / arm set for snapshot validation: a snapshot
// taken against one plan must not silently restore onto another.
uint32_t names_crc(const std::vector<std::string>& names) {
  uint32_t c = 0;
  for (const std::string& n : names) {
    c = util::crc32(std::as_bytes(std::span(n.data(), n.size())), c);
    const std::byte sep{0x0A};
    c = util::crc32(std::span(&sep, 1), c);
  }
  return c;
}

int64_t parse_i64(const std::string& tok) {
  int64_t v = 0;
  const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || p != tok.data() + tok.size()) {
    throw std::invalid_argument("control snapshot: bad integer '" + tok + "'");
  }
  return v;
}

// A count the snapshot records, checked against [0, max] before the caller
// narrows it.
int64_t parse_count(const std::string& tok, int64_t max, const char* what) {
  const int64_t v = parse_i64(tok);
  if (v < 0 || v > max) {
    throw std::invalid_argument(std::string("control snapshot: ") + what +
                                " " + tok + " outside [0, " +
                                std::to_string(max) + "]");
  }
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

// key=value field accessor over the snapshot's ';'-separated fields.
std::string field(const std::vector<std::string>& fields,
                  const std::string& key) {
  for (const std::string& f : fields) {
    if (f.size() > key.size() && f.compare(0, key.size(), key) == 0 &&
        f[key.size()] == '=') {
      return f.substr(key.size() + 1);
    }
  }
  throw std::invalid_argument("control snapshot: missing field '" + key + "'");
}

constexpr char kSnapshotMagic[] = "grace.control.v3";

}  // namespace

Controller::Controller(const ControlConfig& cfg,
                       std::vector<std::string> bucket_names,
                       const std::vector<int64_t>& bucket_numels)
    : cfg_(cfg),
      bucket_names_(std::move(bucket_names)),
      arms_now_(bucket_names_.size(), static_cast<int>(cfg.arms.size()) - 1),
      breaches_(bucket_names_.size(), 0) {
  if (!cfg_.enabled()) {
    throw std::invalid_argument("Controller: the arm set is empty");
  }
  if (bucket_numels.size() != n_buckets()) {
    throw std::invalid_argument("Controller: " +
                                std::to_string(bucket_numels.size()) +
                                " bucket sizes for " +
                                std::to_string(n_buckets()) + " buckets");
  }
  for (const int64_t numel : bucket_numels) {
    cheap_.push_back(static_cast<double>(numel) * 32.0 < kCheapBits);
  }
  if (!cfg_.resume_state.empty()) restore(cfg_.resume_state);
}

std::pair<int, std::string> Controller::decide(size_t b, const float* window) {
  const double samples = static_cast<double>(window[0]);
  const int current_arm = arms_now_[b];
  int& breaches = breaches_[b];
  if (samples <= 0.0) {
    // No fidelity evidence in this window (the window had no exchanges):
    // hold, and hold the streak too.
    return {current_arm, "idle"};
  }
  if (cheap_[b]) {
    breaches = 0;
    if (current_arm > 0) return {0, "cheap"};
    return {current_arm, "cheap:hold"};
  }
  if (static_cast<double>(window[1]) / samples < kCosineFloor) {
    if (++breaches >= kPatience && current_arm > 0) {
      breaches = 0;
      return {current_arm - 1, "cosine<floor"};
    }
    return {current_arm, "cosine<floor:wait"};
  }
  breaches = 0;
  return {current_arm, "in-band"};
}

std::vector<ControlDecision> Controller::step(std::span<const float> signals,
                                              int epoch, int64_t iter) {
  if (signals.size() != signal_size()) {
    throw std::invalid_argument("Controller::step: signal vector size " +
                                std::to_string(signals.size()) + " != " +
                                std::to_string(signal_size()));
  }
  std::vector<ControlDecision> switched;
  for (size_t b = 0; b < n_buckets(); ++b) {
    auto [arm, signal] = decide(b, signals.data() + b * kSignalsPerBucket);
    ControlDecision d;
    d.boundary = boundaries_;
    d.epoch = epoch;
    d.iter = iter;
    d.bucket = static_cast<int>(b);
    d.bucket_name = bucket_names_[b];
    d.from_arm = arms_now_[b];
    d.to_arm = arm;
    d.signal = std::move(signal);
    decisions_.push_back(d);
    if (arm != arms_now_[b]) {
      arms_now_[b] = arm;
      ++switches_;
      switched.push_back(d);
    }
  }
  ++boundaries_;
  return switched;
}

std::string Controller::snapshot() const {
  std::string out = kSnapshotMagic;
  out += ";names_crc=" + std::to_string(names_crc(bucket_names_));
  out += ";arms_crc=" + std::to_string(names_crc(cfg_.arms));
  out += ";buckets=" + std::to_string(n_buckets());
  out += ";arms=" + std::to_string(cfg_.arms.size());
  out += ";boundaries=" + std::to_string(boundaries_);
  out += ";switches=" + std::to_string(switches_);
  for (size_t b = 0; b < n_buckets(); ++b) {
    out += ";b=" + std::to_string(arms_now_[b]) + "|" +
           std::to_string(breaches_[b]);
  }
  return out;
}

void Controller::restore(const std::string& state) {
  const std::vector<std::string> fields = split(state, ';');
  if (fields.empty() || fields[0] != kSnapshotMagic) {
    throw std::invalid_argument(std::string("control snapshot: bad magic "
                                            "(expected ") +
                                kSnapshotMagic + ")");
  }
  if (parse_i64(field(fields, "names_crc")) != names_crc(bucket_names_)) {
    throw std::invalid_argument(
        "control snapshot: bucket plan does not match (names_crc mismatch); "
        "resume requires the identical model + fusion_bytes");
  }
  if (parse_i64(field(fields, "arms_crc")) != names_crc(cfg_.arms)) {
    throw std::invalid_argument(
        "control snapshot: arm set does not match (arms_crc mismatch)");
  }
  if (static_cast<size_t>(parse_i64(field(fields, "buckets"))) != n_buckets() ||
      static_cast<size_t>(parse_i64(field(fields, "arms"))) !=
          cfg_.arms.size()) {
    throw std::invalid_argument("control snapshot: bucket/arm count mismatch");
  }
  const int64_t boundaries = parse_count(field(fields, "boundaries"),
                                         std::numeric_limits<int>::max(),
                                         "boundaries");
  boundaries_ = static_cast<int>(boundaries);
  // At most one switch per (bucket, boundary).
  switches_ = static_cast<int>(parse_count(
      field(fields, "switches"),
      std::min<int64_t>(boundaries * static_cast<int64_t>(n_buckets()),
                        std::numeric_limits<int>::max()),
      "switches"));
  std::vector<std::string> tokens;
  for (const std::string& f : fields) {
    if (f.size() >= 2 && f[0] == 'b' && f[1] == '=') tokens.push_back(f.substr(2));
  }
  if (tokens.size() != n_buckets()) {
    throw std::invalid_argument("control snapshot: expected " +
                                std::to_string(n_buckets()) +
                                " bucket entries, found " +
                                std::to_string(tokens.size()));
  }
  // Each bucket entry is "<arm>|<breaches>"; a streak advances by at most
  // one per boundary.
  for (size_t b = 0; b < tokens.size(); ++b) {
    const size_t bar = tokens[b].find('|');
    if (bar == std::string::npos) {
      throw std::invalid_argument("control snapshot: bucket entry '" +
                                  tokens[b] + "'");
    }
    const auto arm = parse_i64(tokens[b].substr(0, bar));
    if (arm < 0 || static_cast<size_t>(arm) >= cfg_.arms.size()) {
      throw std::invalid_argument("control snapshot: arm index out of range");
    }
    arms_now_[b] = static_cast<int>(arm);
    breaches_[b] = static_cast<int>(
        parse_count(tokens[b].substr(bar + 1), boundaries, "streak"));
  }
}

ControlSummary Controller::summary() const {
  ControlSummary s;
  s.enabled = true;
  s.arms = cfg_.arms;
  s.boundaries = boundaries_;
  s.switches = switches_;
  s.decisions = decisions_;
  s.final_arms = arms_now_;
  s.bucket_names = bucket_names_;
  s.state = snapshot();
  return s;
}

std::string control_decisions_json(const std::vector<ControlDecision>& d) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < d.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"boundary\":" << d[i].boundary << ",\"epoch\":" << d[i].epoch
       << ",\"iter\":" << d[i].iter << ",\"bucket\":" << d[i].bucket
       << ",\"name\":";
    util::json::append_escaped(os, d[i].bucket_name);
    os << ",\"from\":" << d[i].from_arm << ",\"to\":" << d[i].to_arm
       << ",\"signal\":";
    util::json::append_escaped(os, d[i].signal);
    os << '}';
  }
  os << ']';
  return os.str();
}

std::string control_summary_json(const ControlSummary& s) {
  std::ostringstream os;
  os << "{\"enabled\":" << (s.enabled ? "true" : "false");
  if (!s.enabled) {
    os << '}';
    return os.str();
  }
  os << ",\"arms\":[";
  for (size_t i = 0; i < s.arms.size(); ++i) {
    if (i > 0) os << ',';
    util::json::append_escaped(os, s.arms[i]);
  }
  os << "],\"boundaries\":" << s.boundaries << ",\"switches\":" << s.switches
     << ",\"final_arms\":[";
  for (size_t i = 0; i < s.final_arms.size(); ++i) {
    if (i > 0) os << ',';
    os << s.final_arms[i];
  }
  os << "],\"buckets\":[";
  for (size_t i = 0; i < s.bucket_names.size(); ++i) {
    if (i > 0) os << ',';
    util::json::append_escaped(os, s.bucket_names[i]);
  }
  os << "],\"decisions\":" << control_decisions_json(s.decisions)
     << ",\"state\":";
  util::json::append_escaped(os, s.state);
  os << '}';
  return os.str();
}

}  // namespace grace::control
