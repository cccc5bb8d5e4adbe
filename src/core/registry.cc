#include "core/registry.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/compressors/compressors.h"

namespace grace::core {
namespace {

double arg_or(const CompressorSpec& s, size_t i, double fallback) {
  return i < s.args.size() ? s.args[i] : fallback;
}

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
    try {
      out.args.push_back(std::stod(tok));
    } catch (const std::exception&) {
      throw std::invalid_argument("bad numeric arg '" + tok + "' in " + spec);
    }
  }
  return out;
}

std::unique_ptr<Compressor> make_compressor(const std::string& spec_str) {
  using namespace compressors;
  const CompressorSpec s = parse_spec(spec_str);
  if (s.name == "none") return make_none();
  if (s.name == "eightbit") return make_eightbit();
  if (s.name == "onebit") return make_onebit();
  if (s.name == "signsgd") return make_signsgd();
  if (s.name == "signum") return make_signum(arg_or(s, 0, 0.9));
  if (s.name == "qsgd") return make_qsgd(static_cast<int>(arg_or(s, 0, 64)));
  if (s.name == "natural") return make_natural();
  if (s.name == "terngrad") return make_terngrad();
  if (s.name == "efsignsgd") return make_efsignsgd();
  if (s.name == "inceptionn") return make_inceptionn();
  if (s.name == "randomk") {
    return make_randomk(arg_or(s, 0, 0.01), arg_or(s, 1, 0.0) != 0.0);
  }
  if (s.name == "topk") return make_topk(arg_or(s, 0, 0.01));
  if (s.name == "thresholdv") return make_thresholdv(arg_or(s, 0, 0.01));
  if (s.name == "dgc") return make_dgc(arg_or(s, 0, 0.01), arg_or(s, 1, 0.9));
  if (s.name == "adaptive") return make_adaptive(arg_or(s, 0, 0.01));
  if (s.name == "sketchml") {
    return make_sketchml(static_cast<int>(arg_or(s, 0, 64)));
  }
  if (s.name == "powersgd") {
    return make_powersgd(static_cast<int>(arg_or(s, 0, 4)));
  }
  // Surveyed-but-not-implemented methods from Table I, provided as
  // built-in extensions beyond the paper's 16.
  if (s.name == "lpcsvrg") {
    return make_lpcsvrg(static_cast<int>(arg_or(s, 0, 4)));
  }
  if (s.name == "wangni") return make_wangni(arg_or(s, 0, 0.01));
  if (s.name == "threelc") return make_threelc(arg_or(s, 0, 1.0));
  if (s.name == "sketchedsgd") {
    return make_sketchedsgd(static_cast<int>(arg_or(s, 0, 5)),
                            arg_or(s, 1, 0.05), arg_or(s, 2, 0.01));
  }
  if (s.name == "atomo") {
    return make_atomo(static_cast<int>(arg_or(s, 0, 4)), arg_or(s, 1, 0.75));
  }
  if (s.name == "qsparselocal") {
    return make_qsparselocal(arg_or(s, 0, 0.01),
                             static_cast<int>(arg_or(s, 1, 4)));
  }
  if (s.name == "varbased") return make_varbased(arg_or(s, 0, 1.0));
  if (s.name == "gradiveq") {
    return make_gradiveq(static_cast<int>(arg_or(s, 0, 4)),
                         static_cast<int>(arg_or(s, 1, 10)));
  }
  if (s.name == "gradzip") {
    return make_gradzip(static_cast<int>(arg_or(s, 0, 4)), arg_or(s, 1, 1e-3));
  }
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
