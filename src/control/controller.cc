#include "control/controller.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

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

// A count the snapshot records, checked against [0, max] before the caller
// narrows it.
int64_t read_count(const util::json::Value& v, int64_t max,
                   const char* what) {
  const auto n = v.number<int64_t>();
  if (n < 0 || n > max) {
    throw std::invalid_argument(std::string("control snapshot: ") + what +
                                " " + std::to_string(n) + " outside [0, " +
                                std::to_string(max) + "]");
  }
  return n;
}

constexpr std::string_view kSnapshotSchema = "grace.control.v4";

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
  std::ostringstream os;
  os << "{\"schema\":";
  util::json::append_escaped(os, kSnapshotSchema);
  os << ",\"names_crc\":" << names_crc(bucket_names_)
     << ",\"arms_crc\":" << names_crc(cfg_.arms)
     << ",\"arms\":" << cfg_.arms.size() << ",\"boundaries\":" << boundaries_
     << ",\"switches\":" << switches_ << ",\"buckets\":[";
  for (size_t b = 0; b < n_buckets(); ++b) {
    os << (b > 0 ? ",[" : "[") << arms_now_[b] << ',' << breaches_[b] << ']';
  }
  os << "]}";
  return os.str();
}

void Controller::restore(const std::string& state) {
  const util::json::Value doc = util::json::parse(state);
  if (doc.at("schema").string() != kSnapshotSchema) {
    throw std::invalid_argument("control snapshot: schema is not " +
                                std::string(kSnapshotSchema));
  }
  if (doc.at("names_crc").number<uint32_t>() != names_crc(bucket_names_)) {
    throw std::invalid_argument(
        "control snapshot: bucket plan does not match (names_crc mismatch); "
        "resume requires the identical model + fusion_bytes");
  }
  if (doc.at("arms_crc").number<uint32_t>() != names_crc(cfg_.arms)) {
    throw std::invalid_argument(
        "control snapshot: arm set does not match (arms_crc mismatch)");
  }
  const std::vector<util::json::Value>& buckets = doc.at("buckets").array();
  if (buckets.size() != n_buckets() ||
      doc.at("arms").number<size_t>() != cfg_.arms.size()) {
    throw std::invalid_argument("control snapshot: bucket/arm count mismatch");
  }
  const int64_t boundaries = read_count(
      doc.at("boundaries"), std::numeric_limits<int>::max(), "boundaries");
  boundaries_ = static_cast<int>(boundaries);
  // At most one switch per (bucket, boundary).
  const int64_t max_switches =
      std::min<int64_t>(boundaries * static_cast<int64_t>(n_buckets()),
                        std::numeric_limits<int>::max());
  switches_ = static_cast<int>(
      read_count(doc.at("switches"), max_switches, "switches"));
  // Each bucket entry is [arm, breaches]; a streak advances by at most one
  // per boundary.
  for (size_t b = 0; b < buckets.size(); ++b) {
    const std::vector<util::json::Value>& entry = buckets[b].array();
    if (entry.size() != 2) {
      throw std::invalid_argument("control snapshot: bucket entry " +
                                  std::string(buckets[b].text()));
    }
    arms_now_[b] = static_cast<int>(read_count(
        entry[0], static_cast<int64_t>(cfg_.arms.size()) - 1, "arm"));
    breaches_[b] =
        static_cast<int>(read_count(entry[1], boundaries, "streak"));
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
