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

  // Throws when the spec passes its method more than `arity` arguments.
  void check_arity(size_t arity) const {
    if (parsed_.args.size() > arity) {
      reject(parsed_.name + " takes at most " + std::to_string(arity) +
             " argument" + (arity == 1 ? "" : "s"));
    }
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

// One built-in method: its spec name, the most arguments it takes, whether
// it is one of the paper's Table I methods (or an extension Table I surveys
// without the paper implementing it), and its factory over a spec already
// known to name it. The one list make_compressor, registered_names() and
// extension_names() read, in Table I order.
using Args = const SpecArgs&;
struct Builtin {
  const char* name;
  size_t arity;
  bool table1;
  std::unique_ptr<Compressor> (*make)(Args);
};

using namespace compressors;

constexpr Builtin kBuiltins[] = {
    {"none", 0, true, [](Args) { return make_none(); }},
    {"eightbit", 0, true, [](Args) { return make_eightbit(); }},
    {"onebit", 0, true, [](Args) { return make_onebit(); }},
    {"signsgd", 0, true, [](Args) { return make_signsgd(); }},
    {"signum", 1, true,
     [](Args a) { return make_signum(a.real(0, 0.9, kDecay)); }},
    // Level codes are stored one per u8.
    {"qsgd", 1, true,
     [](Args a) { return make_qsgd(a.integer(0, 64, 1, 255)); }},
    {"natural", 0, true, [](Args) { return make_natural(); }},
    {"terngrad", 0, true, [](Args) { return make_terngrad(); }},
    {"efsignsgd", 0, true, [](Args) { return make_efsignsgd(); }},
    {"inceptionn", 0, true, [](Args) { return make_inceptionn(); }},
    {"randomk", 2, true,
     [](Args a) {
       return make_randomk(a.real(0, 0.01, kRatio), a.integer(1, 0, 0, 1) != 0);
     }},
    {"topk", 1, true,
     [](Args a) { return make_topk(a.real(0, 0.01, kRatio)); }},
    {"thresholdv", 1, true,
     [](Args a) { return make_thresholdv(a.real(0, 0.01, kNonNegative)); }},
    {"dgc", 2, true,
     [](Args a) {
       return make_dgc(a.real(0, 0.01, kRatio), a.real(1, 0.9, kDecay));
     }},
    {"adaptive", 1, true,
     [](Args a) { return make_adaptive(a.real(0, 0.01, kRatio)); }},
    // Bucket codes are stored one per u8.
    {"sketchml", 1, true,
     [](Args a) { return make_sketchml(a.integer(0, 64, 1, 256)); }},
    {"powersgd", 1, true,
     [](Args a) { return make_powersgd(a.integer(0, 4, 1, kIntMax)); }},
    // Surveyed-but-not-implemented methods from Table I, provided as
    // built-in extensions beyond the paper's 16.
    {"lpcsvrg", 1, false,
     [](Args a) { return make_lpcsvrg(a.integer(0, 4, 2, 8)); }},
    {"wangni", 1, false,
     [](Args a) { return make_wangni(a.real(0, 0.01, kRatio)); }},
    // The sparsity multiplier s of 3LC lies in [1, 2).
    {"threelc", 1, false,
     [](Args a) {
       return make_threelc(
           a.real(0, 1.0, {1.0, 2.0, false, true, "in [1, 2)"}));
     }},
    {"sketchedsgd", 3, false,
     [](Args a) {
       return make_sketchedsgd(a.integer(0, 5, 1, kIntMax),
                               a.real(1, 0.05, kRatio),
                               a.real(2, 0.01, kRatio));
     }},
    {"atomo", 2, false,
     [](Args a) {
       return make_atomo(a.integer(0, 4, 1, kIntMax),
                         a.real(1, 0.75, {0.0, kFloatMax, true, false,
                                          "a positive float"}));
     }},
    {"qsparselocal", 2, false,
     [](Args a) {
       return make_qsparselocal(a.real(0, 0.01, kRatio), a.integer(1, 4, 1, 8));
     }},
    {"varbased", 1, false,
     [](Args a) { return make_varbased(a.real(0, 1.0, kNonNegative)); }},
    {"gradiveq", 2, false,
     [](Args a) {
       return make_gradiveq(a.integer(0, 4, 1, kIntMax),
                            a.integer(1, 10, 1, kIntMax));
     }},
    {"gradzip", 2, false,
     [](Args a) {
       return make_gradzip(a.integer(0, 4, 1, kIntMax),
                           a.real(1, 1e-3, kNonNegative));
     }},
};

const Builtin* find_builtin(const std::string& name) {
  for (const Builtin& b : kBuiltins) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

// The built-in names of Table I (`table1`) or of the extensions, in order.
std::vector<std::string> builtin_names(bool table1) {
  std::vector<std::string> names;
  for (const Builtin& b : kBuiltins) {
    if (b.table1 == table1) names.emplace_back(b.name);
  }
  return names;
}

std::map<std::string, CompressorFactory>& extensions() {
  static std::map<std::string, CompressorFactory> map;
  return map;
}

}  // namespace

void register_compressor(const std::string& name, CompressorFactory factory) {
  if (find_builtin(name) != nullptr) {
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
  const SpecArgs a(spec_str);
  if (const Builtin* b = find_builtin(a.parsed().name)) {
    a.check_arity(b->arity);
    return b->make(a);
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

std::vector<std::string> registered_names() { return builtin_names(true); }

std::vector<std::string> extension_names() {
  std::vector<std::string> names = builtin_names(false);
  for (const auto& [name, factory] : extensions()) names.push_back(name);
  return names;
}

}  // namespace grace::core
