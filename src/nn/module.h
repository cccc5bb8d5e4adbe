// Parameter containers. A Module owns named parameters (autograd leaves);
// layers register their parameters into the module that owns them. The
// parameter list is exactly the sequence of "gradient vectors" that the
// distributed trainer compresses and communicates (Table II's
// "Gradient vectors" column is the size of this list).
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "nn/value.h"
#include "tensor/rng.h"

namespace grace::nn {

struct Parameter {
  std::string name;
  Value value;  // leaf node; grad accumulates across backward() calls
};

class Module {
 public:
  Parameter& register_parameter(std::string name, Tensor init);

  std::deque<Parameter>& parameters() { return params_; }

  // Sets every parameter gradient to zero (call between iterations).
  void zero_grad();

  int64_t num_parameters() const;

 private:
  std::deque<Parameter> params_;  // deque: stable references on registration
};

// Common initializers.
Tensor he_normal(Rng& rng, Shape shape, int64_t fan_in);
Tensor xavier_uniform(Rng& rng, Shape shape, int64_t fan_in, int64_t fan_out);

}  // namespace grace::nn
