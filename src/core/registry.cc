#include "core/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/compressors/compressors.h"

namespace grace::core {
namespace {

// A built-in method's parsed spec, with each argument checked against the
// method's domain before it is cast. Every check throws
// std::invalid_argument naming the spec.
class SpecArgs {
 public:
  // An interval of admissible real values, each end open or closed.
  struct Domain {
    double lo, hi;
    bool lo_open, hi_open;
    const char* what;
  };

  explicit SpecArgs(const std::string& spec)
      : spec_(spec), parsed_(parse_spec(spec)) {}

  const CompressorSpec& parsed() const { return parsed_; }

  // True when the spec names `method`; throws when it passes that method
  // more than `arity` arguments.
  bool is(const char* method, size_t arity) const {
    if (parsed_.name != method) return false;
    if (parsed_.args.size() > arity) {
      reject(std::string(method) + " takes at most " + std::to_string(arity) +
             " argument" + (arity == 1 ? "" : "s"));
    }
    return true;
  }

  // Argument i as a real in `d`; `fallback` when absent.
  double real(size_t i, double fallback, const Domain& d) const {
    if (i >= parsed_.args.size()) return fallback;
    const double v = parsed_.args[i];
    if ((d.lo_open ? v <= d.lo : v < d.lo) ||
        (d.hi_open ? v >= d.hi : v > d.hi)) {
      reject("argument " + std::to_string(i + 1) + " must be " + d.what);
    }
    return v;
  }

  // Argument i as an integer in [lo, hi]; `fallback` when absent.
  int integer(size_t i, int fallback, int lo, int hi) const {
    if (i >= parsed_.args.size()) return fallback;
    const double v = parsed_.args[i];
    if (v != std::floor(v) || v < lo || v > hi) {
      reject("argument " + std::to_string(i + 1) + " must be an integer in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return static_cast<int>(v);
  }

 private:
  [[noreturn]] void reject(const std::string& why) const {
    throw std::invalid_argument("compressor spec " + spec_ + ": " + why);
  }

  const std::string& spec_;
  CompressorSpec parsed_;
};

constexpr double kFloatMax = std::numeric_limits<float>::max();
constexpr int kIntMax = std::numeric_limits<int>::max();
// Fractions of the tensor to keep.
constexpr SpecArgs::Domain kRatio{0.0, 1.0, true, false, "in (0, 1]"};
// Momentum and decay factors.
constexpr SpecArgs::Domain kDecay{0.0, 1.0, false, true, "in [0, 1)"};
// Thresholds and regularizers, stored as float.
constexpr SpecArgs::Domain kNonNegative{0.0, kFloatMax, false, false,
                                        "a non-negative float"};

std::map<std::string, CompressorFactory>& extensions() {
  static std::map<std::string, CompressorFactory> map;
  return map;
}

const std::vector<std::string>& builtin_extension_names() {
  static const std::vector<std::string> names = {
      "lpcsvrg",  "wangni",   "threelc", "sketchedsgd", "atomo",
      "qsparselocal", "varbased", "gradiveq", "gradzip"};
  return names;
}

bool is_builtin(const std::string& name) {
  for (const auto& b : registered_names()) {
    if (b == name) return true;
  }
  for (const auto& b : builtin_extension_names()) {
    if (b == name) return true;
  }
  return false;
}

}  // namespace

void register_compressor(const std::string& name, CompressorFactory factory) {
  if (is_builtin(name)) {
    throw std::invalid_argument("cannot override built-in compressor: " + name);
  }
  extensions()[name] = std::move(factory);
}

CompressorSpec parse_spec(const std::string& spec) {
  CompressorSpec out;
  const auto open = spec.find('(');
  if (open == std::string::npos) {
    out.name = spec;
    return out;
  }
  if (spec.back() != ')') {
    throw std::invalid_argument("malformed compressor spec: " + spec);
  }
  out.name = spec.substr(0, open);
  std::string args = spec.substr(open + 1, spec.size() - open - 2);
  std::istringstream is(args);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    // Each token must be one whole finite number: no trailing characters
    // ("0.01x"), no nan or inf.
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end != tok.c_str() + tok.size() || !std::isfinite(v)) {
      throw std::invalid_argument("bad numeric arg '" + tok + "' in " + spec);
    }
    out.args.push_back(v);
  }
  return out;
}

std::unique_ptr<Compressor> make_compressor(const std::string& spec_str) {
  using namespace compressors;
  const SpecArgs a(spec_str);
  if (a.is("none", 0)) return make_none();
  if (a.is("eightbit", 0)) return make_eightbit();
  if (a.is("onebit", 0)) return make_onebit();
  if (a.is("signsgd", 0)) return make_signsgd();
  if (a.is("signum", 1)) return make_signum(a.real(0, 0.9, kDecay));
  // Level codes are stored one per u8.
  if (a.is("qsgd", 1)) return make_qsgd(a.integer(0, 64, 1, 255));
  if (a.is("natural", 0)) return make_natural();
  if (a.is("terngrad", 0)) return make_terngrad();
  if (a.is("efsignsgd", 0)) return make_efsignsgd();
  if (a.is("inceptionn", 0)) return make_inceptionn();
  if (a.is("randomk", 2)) {
    return make_randomk(a.real(0, 0.01, kRatio), a.integer(1, 0, 0, 1) != 0);
  }
  if (a.is("topk", 1)) return make_topk(a.real(0, 0.01, kRatio));
  if (a.is("thresholdv", 1)) {
    return make_thresholdv(a.real(0, 0.01, kNonNegative));
  }
  if (a.is("dgc", 2)) {
    return make_dgc(a.real(0, 0.01, kRatio), a.real(1, 0.9, kDecay));
  }
  if (a.is("adaptive", 1)) return make_adaptive(a.real(0, 0.01, kRatio));
  // Bucket codes are stored one per u8.
  if (a.is("sketchml", 1)) return make_sketchml(a.integer(0, 64, 1, 256));
  if (a.is("powersgd", 1)) return make_powersgd(a.integer(0, 4, 1, kIntMax));
  // Surveyed-but-not-implemented methods from Table I, provided as
  // built-in extensions beyond the paper's 16.
  if (a.is("lpcsvrg", 1)) return make_lpcsvrg(a.integer(0, 4, 2, 8));
  if (a.is("wangni", 1)) return make_wangni(a.real(0, 0.01, kRatio));
  if (a.is("threelc", 1)) {
    // The sparsity multiplier s of 3LC lies in [1, 2).
    return make_threelc(a.real(0, 1.0, {1.0, 2.0, false, true, "in [1, 2)"}));
  }
  if (a.is("sketchedsgd", 3)) {
    return make_sketchedsgd(a.integer(0, 5, 1, kIntMax),
                            a.real(1, 0.05, kRatio), a.real(2, 0.01, kRatio));
  }
  if (a.is("atomo", 2)) {
    return make_atomo(a.integer(0, 4, 1, kIntMax),
                      a.real(1, 0.75, {0.0, kFloatMax, true, false,
                                       "a positive float"}));
  }
  if (a.is("qsparselocal", 2)) {
    return make_qsparselocal(a.real(0, 0.01, kRatio), a.integer(1, 4, 1, 8));
  }
  if (a.is("varbased", 1)) return make_varbased(a.real(0, 1.0, kNonNegative));
  if (a.is("gradiveq", 2)) {
    return make_gradiveq(a.integer(0, 4, 1, kIntMax),
                         a.integer(1, 10, 1, kIntMax));
  }
  if (a.is("gradzip", 2)) {
    return make_gradzip(a.integer(0, 4, 1, kIntMax),
                        a.real(1, 1e-3, kNonNegative));
  }
  const CompressorSpec& s = a.parsed();
  if (auto it = extensions().find(s.name); it != extensions().end()) {
    return it->second(s);
  }
  // Spell out what IS available: the Table-I names plus every extension
  // (built-in and user-registered), sorted, so a typo'd spec is
  // self-diagnosing.
  std::vector<std::string> known = registered_names();
  for (const auto& name : extension_names()) known.push_back(name);
  std::sort(known.begin(), known.end());
  std::ostringstream msg;
  msg << "unknown compressor: " << s.name << " (registered: ";
  for (size_t i = 0; i < known.size(); ++i) {
    if (i) msg << ", ";
    msg << known[i];
  }
  msg << ")";
  throw std::invalid_argument(msg.str());
}

std::vector<std::string> registered_names() {
  return {"none",      "eightbit", "onebit",     "signsgd", "signum",
          "qsgd",      "natural",  "terngrad",   "efsignsgd", "inceptionn",
          "randomk",   "topk",     "thresholdv", "dgc",     "adaptive",
          "sketchml",  "powersgd"};
}

std::vector<std::string> extension_names() {
  std::vector<std::string> names = builtin_extension_names();
  for (const auto& [name, factory] : extensions()) names.push_back(name);
  return names;
}

}  // namespace grace::core
