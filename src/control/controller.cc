#include "control/controller.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/json_util.h"
#include "util/crc32.h"

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

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

double parse_double(const std::string& tok) {
  double v = 0.0;
  const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || p != tok.data() + tok.size() || !std::isfinite(v)) {
    throw std::invalid_argument("control snapshot: bad number '" + tok + "'");
  }
  return v;
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
// narrows or replays it.
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

class FixedPolicy final : public ControlPolicy {
 public:
  const char* name() const override { return "fixed"; }
  Verdict decide(size_t, int current_arm, const WindowStats&) override {
    return {current_arm, "fixed"};
  }
  std::string serialize_bucket(size_t) const override { return "-"; }
  void restore_bucket(size_t, const std::string& token, int64_t) override {
    if (token != "-") {
      throw std::invalid_argument("control snapshot: fixed-policy token '" +
                                  token + "'");
    }
  }
};

// Threshold rules with hysteresis. Arms are ordered lightest (index 0) to
// heaviest; a sustained fidelity breach steps one arm LIGHTER (toward
// index 0: less compression, more faithful gradients), a sustained
// comfortable margin steps one arm HEAVIER. The band between "breach" and
// "comfortable" resets both streaks, so a window hovering at a threshold
// never flaps the arm back and forth.
class HysteresisRulePolicy final : public ControlPolicy {
 public:
  HysteresisRulePolicy(const ControlConfig& cfg, size_t n_buckets,
                       size_t n_arms)
      : cfg_(cfg), n_arms_(static_cast<int>(n_arms)), state_(n_buckets) {}

  const char* name() const override { return "hysteresis"; }

  Verdict decide(size_t bucket, int current_arm,
                 const WindowStats& w) override {
    Streaks& st = state_[bucket];
    if (w.samples <= 0.0) {
      // No fidelity evidence in this window (probe cadence skipped it, or
      // the window had no exchanges): hold, and hold the streaks too.
      return {current_arm, "idle"};
    }
    // Cheap-bucket rule: a dense payload under the threshold costs nothing
    // on the wire, so there is no upside to compressing it — pin to the
    // lightest arm immediately and never promote.
    if (cfg_.cheap_bits > 0.0 && w.dense_bits_per_sample > 0.0 &&
        w.dense_bits_per_sample < cfg_.cheap_bits) {
      st.worse = 0;
      st.better = 0;
      if (current_arm > 0) return {0, "cheap"};
      return {current_arm, "cheap:hold"};
    }
    std::string breach;
    if (w.cosine < cfg_.cosine_floor) breach = "cosine<floor";
    else if (w.sign_agreement < cfg_.sign_floor) breach = "sign<floor";
    else if (w.residual_rel > cfg_.residual_ceiling) breach = "residual>ceiling";
    if (!breach.empty()) {
      st.better = 0;
      if (++st.worse >= cfg_.patience && current_arm > 0) {
        st.worse = 0;
        return {current_arm - 1, breach};
      }
      return {current_arm, breach + ":wait"};
    }
    const bool comfortable =
        w.cosine >= cfg_.cosine_floor + cfg_.band &&
        w.sign_agreement >= cfg_.sign_floor + cfg_.band &&
        w.residual_rel <= cfg_.residual_ceiling * (1.0 - cfg_.band);
    if (comfortable) {
      st.worse = 0;
      if (++st.better >= cfg_.patience && current_arm + 1 < n_arms_) {
        st.better = 0;
        return {current_arm + 1, "headroom"};
      }
      return {current_arm, "headroom:wait"};
    }
    st.worse = 0;
    st.better = 0;
    return {current_arm, "in-band"};
  }

  std::string serialize_bucket(size_t bucket) const override {
    const Streaks& st = state_[bucket];
    return std::to_string(st.worse) + ":" + std::to_string(st.better);
  }

  void restore_bucket(size_t bucket, const std::string& token,
                      int64_t boundaries) override {
    const std::vector<std::string> parts = split(token, ':');
    if (parts.size() != 2) {
      throw std::invalid_argument("control snapshot: hysteresis token '" +
                                  token + "'");
    }
    state_[bucket].worse =
        static_cast<int>(parse_count(parts[0], boundaries, "streak"));
    state_[bucket].better =
        static_cast<int>(parse_count(parts[1], boundaries, "streak"));
  }

 private:
  struct Streaks {
    int worse = 0;
    int better = 0;
  };
  ControlConfig cfg_;
  int n_arms_;
  std::vector<Streaks> state_;
};

// Seeded bandit over the arm set. Reward blends fidelity (cosine + sign
// agreement) with wire savings; epsilon-greedy draws exactly ONE uniform
// per (bucket, boundary) — reused for both the explore coin and the arm
// choice — so the RNG position is a pure function of the number of
// decisions taken, which is what makes replay-after-restore exact. With
// ucb_c > 0 the policy is UCB1 and consumes no randomness at all.
class SeededBanditPolicy final : public ControlPolicy {
 public:
  SeededBanditPolicy(const ControlConfig& cfg, size_t n_buckets, size_t n_arms,
                     uint64_t run_seed)
      : cfg_(cfg),
        n_arms_(n_arms),
        rng_(run_seed ^ cfg.seed_salt),
        state_(n_buckets, Arms(n_arms)) {}

  const char* name() const override { return "bandit"; }

  Verdict decide(size_t bucket, int current_arm,
                 const WindowStats& w) override {
    Arms& a = state_[bucket];
    if (w.samples > 0.0) {
      const double reward = 0.5 * (w.cosine + w.sign_agreement) +
                            cfg_.ratio_weight * (1.0 - w.wire_share);
      Cell& c = a.cells[static_cast<size_t>(current_arm)];
      c.plays += 1;
      c.mean += (reward - c.mean) / static_cast<double>(c.plays);
    }
    // Bootstrap: play every arm once, in index order, before estimating.
    for (size_t i = 0; i < n_arms_; ++i) {
      if (a.cells[i].plays == 0) return {static_cast<int>(i), "bootstrap"};
    }
    if (cfg_.ucb_c > 0.0) {
      int64_t total = 0;
      for (const Cell& c : a.cells) total += c.plays;
      size_t best = 0;
      double best_score = -std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n_arms_; ++i) {
        const double score =
            a.cells[i].mean +
            cfg_.ucb_c * std::sqrt(std::log(static_cast<double>(total)) /
                                   static_cast<double>(a.cells[i].plays));
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      return {static_cast<int>(best), "ucb"};
    }
    const double u = draw();
    if (cfg_.epsilon > 0.0 && u < cfg_.epsilon) {
      const auto pick = static_cast<size_t>(u / cfg_.epsilon *
                                            static_cast<double>(n_arms_));
      return {static_cast<int>(std::min(pick, n_arms_ - 1)), "explore"};
    }
    size_t best = 0;
    for (size_t i = 1; i < n_arms_; ++i) {
      if (a.cells[i].mean > a.cells[best].mean) best = i;
    }
    return {static_cast<int>(best), "exploit"};
  }

  std::string serialize_bucket(size_t bucket) const override {
    std::string out;
    const Arms& a = state_[bucket];
    for (size_t i = 0; i < a.cells.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(a.cells[i].plays) + ":" +
             format_double(a.cells[i].mean);
    }
    return out;
  }

  void restore_bucket(size_t bucket, const std::string& token,
                      int64_t boundaries) override {
    const std::vector<std::string> cells = split(token, ',');
    if (cells.size() != n_arms_) {
      throw std::invalid_argument("control snapshot: bandit token '" + token +
                                  "' does not match the arm count");
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      const std::vector<std::string> kv = split(cells[i], ':');
      if (kv.size() != 2) {
        throw std::invalid_argument("control snapshot: bandit cell '" +
                                    cells[i] + "'");
      }
      state_[bucket].cells[i].plays = parse_count(kv[0], boundaries, "plays");
      state_[bucket].cells[i].mean = parse_double(kv[1]);
    }
  }

  uint64_t rng_draws() const override { return draws_; }
  void replay_rng(uint64_t draws) override {
    for (uint64_t i = 0; i < draws; ++i) draw();
  }

 private:
  double draw() {
    ++draws_;
    return rng_.uniform();
  }

  struct Cell {
    int64_t plays = 0;
    double mean = 0.0;
  };
  struct Arms {
    explicit Arms(size_t n) : cells(n) {}
    std::vector<Cell> cells;
  };
  ControlConfig cfg_;
  size_t n_arms_;
  Rng rng_;
  uint64_t draws_ = 0;
  std::vector<Arms> state_;
};

constexpr char kSnapshotMagic[] = "grace.control.v1";

}  // namespace

void ControlPolicy::replay_rng(uint64_t draws) {
  if (draws != 0) {
    throw std::invalid_argument(
        "control snapshot: rng draws recorded for a policy that draws none");
  }
}

std::unique_ptr<ControlPolicy> make_policy(const ControlConfig& cfg,
                                           size_t n_buckets, size_t n_arms,
                                           uint64_t run_seed) {
  cfg.validate();
  if (cfg.policy == "fixed") return std::make_unique<FixedPolicy>();
  if (cfg.policy == "hysteresis") {
    return std::make_unique<HysteresisRulePolicy>(cfg, n_buckets, n_arms);
  }
  return std::make_unique<SeededBanditPolicy>(cfg, n_buckets, n_arms, run_seed);
}

WindowStats window_from_signals(const float* s) {
  WindowStats w;
  w.samples = static_cast<double>(s[0]);
  if (w.samples <= 0.0) return w;
  w.cosine = static_cast<double>(s[1]) / w.samples;
  w.sign_agreement = static_cast<double>(s[2]) / w.samples;
  w.residual_rel =
      s[4] > 0.0f ? static_cast<double>(s[3]) / static_cast<double>(s[4]) : 0.0;
  if (s[6] > 0.0f) {
    w.wire_share = static_cast<double>(s[5]) / static_cast<double>(s[6]);
  }
  if (s[5] > 0.0f) {
    w.compression_ratio =
        static_cast<double>(s[6]) / static_cast<double>(s[5]);
  }
  w.dense_bits_per_sample = static_cast<double>(s[6]) / w.samples;
  return w;
}

Controller::Controller(const ControlConfig& cfg,
                       std::vector<std::string> bucket_names, uint64_t run_seed)
    : cfg_(cfg), bucket_names_(std::move(bucket_names)) {
  cfg_.validate();
  policy_ = make_policy(cfg_, bucket_names_.size(), cfg_.arms.size(), run_seed);
  arms_now_.assign(bucket_names_.size(), cfg_.start_arm);
  if (!cfg_.resume_state.empty()) restore(cfg_.resume_state);
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
    const WindowStats w =
        window_from_signals(signals.data() + b * kSignalsPerBucket);
    const ControlPolicy::Verdict v =
        policy_->decide(b, arms_now_[b], w);
    ControlDecision d;
    d.boundary = boundaries_;
    d.epoch = epoch;
    d.iter = iter;
    d.bucket = static_cast<int>(b);
    d.bucket_name = bucket_names_[b];
    d.from_arm = arms_now_[b];
    d.to_arm = v.arm;
    d.signal = v.signal;
    decisions_.push_back(d);
    if (v.arm != arms_now_[b]) {
      arms_now_[b] = v.arm;
      ++switches_;
      switched.push_back(d);
    }
  }
  ++boundaries_;
  return switched;
}

std::string Controller::snapshot() const {
  std::string out = kSnapshotMagic;
  out += ";policy=";
  out += policy_->name();
  out += ";names_crc=" + std::to_string(names_crc(bucket_names_));
  out += ";arms_crc=" + std::to_string(names_crc(cfg_.arms));
  out += ";buckets=" + std::to_string(n_buckets());
  out += ";arms=" + std::to_string(cfg_.arms.size());
  out += ";boundaries=" + std::to_string(boundaries_);
  out += ";switches=" + std::to_string(switches_);
  out += ";draws=" + std::to_string(policy_->rng_draws());
  for (size_t b = 0; b < n_buckets(); ++b) {
    out += ";b=" + std::to_string(arms_now_[b]) + "|" +
           policy_->serialize_bucket(b);
  }
  return out;
}

void Controller::restore(const std::string& state) {
  const std::vector<std::string> fields = split(state, ';');
  if (fields.empty() || fields[0] != kSnapshotMagic) {
    throw std::invalid_argument(
        "control snapshot: bad magic (expected grace.control.v1)");
  }
  if (field(fields, "policy") != policy_->name()) {
    throw std::invalid_argument("control snapshot: policy '" +
                                field(fields, "policy") +
                                "' does not match configured policy '" +
                                policy_->name() + "'");
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
  // At most one switch, and one epsilon-greedy draw, per (bucket,
  // boundary). Bounding the draws keeps a damaged snapshot from replaying
  // an unbounded RNG sequence.
  const int64_t per_bucket_boundary =
      boundaries * static_cast<int64_t>(n_buckets());
  boundaries_ = static_cast<int>(boundaries);
  switches_ = static_cast<int>(parse_count(
      field(fields, "switches"),
      std::min<int64_t>(per_bucket_boundary, std::numeric_limits<int>::max()),
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
    policy_->restore_bucket(b, tokens[b].substr(bar + 1), boundaries);
  }
  policy_->replay_rng(static_cast<uint64_t>(
      parse_count(field(fields, "draws"), per_bucket_boundary, "draws")));
}

ControlSummary Controller::summary() const {
  ControlSummary s;
  s.enabled = true;
  s.policy = policy_->name();
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
    sim::append_escaped(os, d[i].bucket_name);
    os << ",\"from\":" << d[i].from_arm << ",\"to\":" << d[i].to_arm
       << ",\"signal\":";
    sim::append_escaped(os, d[i].signal);
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
  os << ",\"policy\":";
  sim::append_escaped(os, s.policy);
  os << ",\"arms\":[";
  for (size_t i = 0; i < s.arms.size(); ++i) {
    if (i > 0) os << ',';
    sim::append_escaped(os, s.arms[i]);
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
    sim::append_escaped(os, s.bucket_names[i]);
  }
  os << "],\"decisions\":" << control_decisions_json(s.decisions)
     << ",\"state\":";
  sim::append_escaped(os, s.state);
  os << '}';
  return os.str();
}

}  // namespace grace::control
