#include "faults/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <variant>

#include "util/json.h"

namespace grace::faults {
namespace {

// splitmix64 finalizer: a full-avalanche 64-bit mix, the standard choice
// for turning structured integers (rank, epoch, iter) into uniform bits.
constexpr uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from the top 53 bits.
constexpr double unit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Decision-kind domains so e.g. drop and corrupt draws at the same
// coordinates are independent.
enum : uint64_t {
  kKindDrop = 0x9d,
  kKindCorrupt = 0xc0,
  kKindCorruptBit = 0xcb,
  kKindStraggler = 0x57,
  kKindSkipRound = 0x5c,
  kKindParticipate = 0x9a,
  kKindOutage = 0x0a,
};

uint64_t link_id(int src, int dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

void check_prob(double p, const char* name) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string("FaultSpec: ") + name +
                                " must be in [0, 1]");
  }
}

void check_delay(double seconds, const char* name) {
  if (!(std::isfinite(seconds) && seconds >= 0.0)) {
    throw std::invalid_argument(std::string("FaultSpec: ") + name +
                                " must be finite and non-negative");
  }
}

// One FaultSpec field and its plan key. fault_spec_json writes the fields
// in this order; parse_fault_spec_json reads each with the member's type.
struct SpecField {
  std::string_view name;
  std::variant<uint64_t FaultSpec::*, int FaultSpec::*, int64_t FaultSpec::*,
               double FaultSpec::*>
      member;
};

constexpr SpecField kSpecFields[] = {
    {"seed", &FaultSpec::seed},
    {"drop_prob", &FaultSpec::drop_prob},
    {"corrupt_prob", &FaultSpec::corrupt_prob},
    {"max_retries", &FaultSpec::max_retries},
    {"retry_timeout_s", &FaultSpec::retry_timeout_s},
    {"straggler_prob", &FaultSpec::straggler_prob},
    {"straggler_delay_s", &FaultSpec::straggler_delay_s},
    {"straggler_rank", &FaultSpec::straggler_rank},
    {"skip_round_prob", &FaultSpec::skip_round_prob},
    {"crash_rank", &FaultSpec::crash_rank},
    {"crash_epoch", &FaultSpec::crash_epoch},
    {"crash_iter", &FaultSpec::crash_iter},
    {"participation_rate", &FaultSpec::participation_rate},
    {"outage_prob", &FaultSpec::outage_prob},
    {"outage_iters", &FaultSpec::outage_iters},
    {"outage_reconnect_stall_s", &FaultSpec::outage_reconnect_stall_s},
    {"outage_rank", &FaultSpec::outage_rank},
};

// [{"epoch":e,"rank":r,"join":0|1},...]
void read_churn(const util::json::Value& v, std::vector<ChurnEvent>& churn) {
  for (const util::json::Value& event : v.array()) {
    ChurnEvent& e = churn.emplace_back();
    for (const auto& [name, value] : event.object()) {
      const int n = value.number<int>();
      if (name == "epoch") {
        e.epoch = n;
      } else if (name == "rank") {
        e.rank = n;
      } else if (name == "join" && (n == 0 || n == 1)) {
        e.join = n == 1;
      } else {
        value.fail("expected churn \"epoch\", \"rank\" or \"join\" 0 or 1");
      }
    }
  }
}

}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec) : spec_(spec) {
  check_prob(spec.drop_prob, "drop_prob");
  check_prob(spec.corrupt_prob, "corrupt_prob");
  check_prob(spec.straggler_prob, "straggler_prob");
  check_prob(spec.skip_round_prob, "skip_round_prob");
  if (spec.drop_prob + spec.corrupt_prob > 1.0) {
    throw std::invalid_argument(
        "FaultSpec: drop_prob + corrupt_prob must not exceed 1");
  }
  if (spec.max_retries < 1) {
    throw std::invalid_argument(
        "FaultSpec: max_retries must be >= 1 (the final attempt is the "
        "guaranteed delivery)");
  }
  check_delay(spec.retry_timeout_s, "retry_timeout_s");
  check_delay(spec.straggler_delay_s, "straggler_delay_s");
  if (spec.crash_rank == 0) {
    throw std::invalid_argument(
        "FaultSpec: crash_rank 0 is not supported — rank 0 owns evaluation "
        "and run bookkeeping and must survive");
  }
  if (spec.has_crash() && (spec.crash_epoch < 0 || spec.crash_iter < 0)) {
    throw std::invalid_argument(
        "FaultSpec: crash_epoch and crash_iter must be non-negative");
  }
  if (!(spec.participation_rate > 0.0 && spec.participation_rate <= 1.0)) {
    throw std::invalid_argument(
        "FaultSpec: participation_rate must be in (0, 1] — at 0 no round "
        "could ever complete");
  }
  check_prob(spec.outage_prob, "outage_prob");
  if (spec.outage_iters < 1) {
    throw std::invalid_argument("FaultSpec: outage_iters must be >= 1");
  }
  check_delay(spec.outage_reconnect_stall_s, "outage_reconnect_stall_s");
  if (spec.outage_rank == 0) {
    throw std::invalid_argument(
        "FaultSpec: outage_rank 0 is not supported — rank 0 must stay "
        "connected");
  }
  if (spec.has_crash() && spec.has_churn()) {
    throw std::invalid_argument(
        "FaultSpec: crash_rank and churn events are mutually exclusive — "
        "model the crash as a churn leave event instead");
  }
  for (const ChurnEvent& e : spec.churn) {
    if (e.epoch < 1) {
      throw std::invalid_argument(
          "FaultSpec: churn events must fire at epoch >= 1 (the fleet "
          "starts epoch 0 at full strength)");
    }
    if (e.rank == 0) {
      throw std::invalid_argument(
          "FaultSpec: rank 0 never churns — it owns evaluation, run "
          "bookkeeping and join bootstrap");
    }
    if (e.rank < 0) {
      throw std::invalid_argument("FaultSpec: churn rank must be >= 0");
    }
  }
}

uint64_t FaultPlan::hash(uint64_t kind, uint64_t a, uint64_t b,
                         uint64_t c) const {
  uint64_t h = mix(spec_.seed ^ (kind * 0xff51afd7ed558ccdULL));
  h = mix(h ^ a);
  h = mix(h ^ b);
  return mix(h ^ c);
}

uint8_t FaultPlan::attempt_outcome(int src, int dst, uint64_t seq,
                                   int attempt) const {
  if (attempt >= spec_.max_retries) return 0;
  const uint64_t link = link_id(src, dst);
  const auto at = static_cast<uint64_t>(attempt);
  const double u = unit(hash(kKindDrop, link, seq, at));
  if (u < spec_.drop_prob) return kAttemptDropped;
  if (u < spec_.drop_prob + spec_.corrupt_prob) return kAttemptCorrupt;
  return 0;
}

uint64_t FaultPlan::corrupt_bit(int src, int dst, uint64_t seq, int attempt,
                                uint64_t n_bits) const {
  if (n_bits == 0) return 0;
  const uint64_t h = hash(kKindCorruptBit, link_id(src, dst), seq,
                          static_cast<uint64_t>(attempt));
  return h % n_bits;
}

double FaultPlan::straggler_delay(int rank, int epoch, int64_t iter) const {
  if (spec_.straggler_prob <= 0.0 || spec_.straggler_delay_s <= 0.0) return 0.0;
  if (spec_.straggler_rank >= 0 && rank != spec_.straggler_rank) return 0.0;
  const uint64_t h = hash(kKindStraggler, static_cast<uint64_t>(rank),
                          static_cast<uint64_t>(epoch),
                          static_cast<uint64_t>(iter));
  return unit(h) < spec_.straggler_prob ? spec_.straggler_delay_s : 0.0;
}

bool FaultPlan::round_skipped(int epoch, int64_t iter) const {
  if (spec_.skip_round_prob <= 0.0) return false;
  const uint64_t h = hash(kKindSkipRound, static_cast<uint64_t>(epoch),
                          static_cast<uint64_t>(iter), 0);
  return unit(h) < spec_.skip_round_prob;
}

bool FaultPlan::in_outage(int rank, int epoch, int64_t iter) const {
  if (spec_.outage_prob <= 0.0 || rank == 0) return false;
  if (spec_.outage_rank >= 0 && rank != spec_.outage_rank) return false;
  // A window opened at round j covers [j, j + outage_iters). Windows never
  // cross an epoch boundary, so only draws within this epoch matter.
  const int64_t first = std::max<int64_t>(0, iter - spec_.outage_iters + 1);
  for (int64_t j = first; j <= iter; ++j) {
    const uint64_t h = hash(kKindOutage, static_cast<uint64_t>(rank),
                            static_cast<uint64_t>(epoch),
                            static_cast<uint64_t>(j));
    if (unit(h) < spec_.outage_prob) return true;
  }
  return false;
}

bool FaultPlan::outage_reconnect(int rank, int epoch, int64_t iter) const {
  if (iter < 1) return false;  // epoch starts freshly connected
  return !in_outage(rank, epoch, iter) && in_outage(rank, epoch, iter - 1);
}

double FaultPlan::stall(int rank, int epoch, int64_t iter,
                        FaultCounters& counters) const {
  double stall_s = 0.0;
  const double delay = straggler_delay(rank, epoch, iter);
  if (delay > 0.0) {
    ++counters.straggler_events;
    counters.straggler_stall_s += delay;
    stall_s += delay;
  }
  // Each outage window counts once, on entry; its reconnect stall is
  // charged the first round after it ends.
  if (in_outage(rank, epoch, iter) &&
      (iter == 0 || !in_outage(rank, epoch, iter - 1))) {
    ++counters.outages;
  }
  const double reconnect_s = spec_.outage_reconnect_stall_s;
  if (reconnect_s > 0.0 && outage_reconnect(rank, epoch, iter)) {
    counters.outage_stall_s += reconnect_s;
    stall_s += reconnect_s;
  }
  return stall_s;
}

bool FaultPlan::participates(int rank, int epoch, int64_t iter) const {
  if (rank == 0) return true;
  if (in_outage(rank, epoch, iter)) return false;
  if (spec_.participation_rate >= 1.0) return true;
  const uint64_t h = hash(kKindParticipate, static_cast<uint64_t>(rank),
                          static_cast<uint64_t>(epoch),
                          static_cast<uint64_t>(iter));
  return unit(h) < spec_.participation_rate;
}

std::string fault_spec_json(const FaultSpec& s) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  char sep = '{';
  for (const SpecField& f : kSpecFields) {
    os << sep << '"' << f.name << "\":";
    std::visit(
        [&](auto member) {
          if constexpr (std::is_floating_point_v<
                            std::decay_t<decltype(s.*member)>>) {
            util::json::append_number(os, s.*member);
          } else {
            os << s.*member;
          }
        },
        f.member);
    sep = ',';
  }
  os << ",\"churn\":[";
  for (size_t i = 0; i < s.churn.size(); ++i) {
    const ChurnEvent& e = s.churn[i];
    if (i > 0) os << ",";
    os << "{\"epoch\":" << e.epoch << ",\"rank\":" << e.rank
       << ",\"join\":" << (e.join ? 1 : 0) << "}";
  }
  os << "]}";
  return os.str();
}

FaultSpec parse_fault_spec_json(const std::string& text) {
  const util::json::Value doc = util::json::parse(text);
  FaultSpec spec;
  for (const auto& [name, value] : doc.object()) {
    const auto field =
        std::find_if(std::begin(kSpecFields), std::end(kSpecFields),
                     [&](const SpecField& f) { return f.name == name; });
    if (name == "churn") {
      read_churn(value, spec.churn);
    } else if (field == std::end(kSpecFields)) {
      value.fail("unknown fault plan key \"" + name + "\"");
    } else {
      std::visit(
          [&](auto member) {
            spec.*member = value.number<std::decay_t<decltype(spec.*member)>>();
          },
          field->member);
    }
  }
  return spec;
}

}  // namespace grace::faults
