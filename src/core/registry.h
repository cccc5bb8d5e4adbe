// Compressor registry: builds compressors from spec strings like
// "topk(0.01)", "qsgd(64)" or "powersgd(4)".
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compressor.h"

namespace grace::core {

struct CompressorSpec {
  std::string name;
  std::vector<double> args;
};

// Parses "name", "name(a)", or "name(a,b)". Throws std::invalid_argument
// on malformed specs, including an argument that is not one whole finite
// number ("0.01x", "nan", "inf").
CompressorSpec parse_spec(const std::string& spec);

// Instantiate a compressor. Missing args fall back to the paper's defaults
// (Randk/Topk/Thresholdv/DGC/Adaptive 0.01, QSGD/SketchML 64, PowerSGD 4).
// Throws std::invalid_argument for unknown names, for more arguments than
// the method takes, and for an argument outside the method's domain
// (ratios in (0, 1], decay factors in [0, 1), integers integral and in
// range).
std::unique_ptr<Compressor> make_compressor(const std::string& spec);

// Extension point: register a user-defined compressor under a new base
// name so that spec strings (and therefore the trainer and the benchmark
// harness) can instantiate it. Registration must happen before training
// threads start; re-registering a name replaces the factory. Built-in
// names cannot be overridden.
using CompressorFactory =
    std::function<std::unique_ptr<Compressor>(const CompressorSpec&)>;
void register_compressor(const std::string& name, CompressorFactory factory);

// The paper's roster: baseline + the 16 implemented methods, Table I order.
std::vector<std::string> registered_names();

// Methods Table I surveys but the paper does not implement, provided here
// as extensions — plus any user-registered factories.
std::vector<std::string> extension_names();

}  // namespace grace::core
