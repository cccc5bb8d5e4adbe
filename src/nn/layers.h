// Reusable layers. Each layer registers its parameters into the owning
// Module at construction and exposes a pure forward() over graph values.
// A layer's copying constructor registers into another Module a copy of
// the source layer's current parameters, under the same names and in the
// same order as the layer's own constructor (model replicas, DESIGN.md §12).
#pragma once

#include <string>
#include <utility>

#include "nn/conv_ops.h"
#include "nn/module.h"
#include "nn/ops.h"

namespace grace::nn {

class Linear {
 public:
  Linear(Module& m, const std::string& name, int64_t in, int64_t out, Rng& rng);
  Linear(Module& m, const Linear& src);
  Value forward(const Value& x) const;  // x: (batch, in) -> (batch, out)

 private:
  std::string name_;
  Value w_, b_;
};

class Conv2dLayer {
 public:
  Conv2dLayer(Module& m, const std::string& name, int64_t in_ch, int64_t out_ch,
              int64_t kernel, int64_t stride, int64_t pad, Rng& rng);
  Conv2dLayer(Module& m, const Conv2dLayer& src);
  Value forward(const Value& x) const;

 private:
  std::string name_;
  Value w_, b_;
  int64_t stride_, pad_;
};

class EmbeddingLayer {
 public:
  EmbeddingLayer(Module& m, const std::string& name, int64_t vocab, int64_t dim,
                 Rng& rng);
  EmbeddingLayer(Module& m, const EmbeddingLayer& src);
  Value forward(std::vector<int32_t> ids) const;

 private:
  std::string name_;
  Value table_;
};

class LstmCell {
 public:
  LstmCell(Module& m, const std::string& name, int64_t in, int64_t hidden,
           Rng& rng);
  LstmCell(Module& m, const LstmCell& src);
  // Returns {h', c'} given input x: (batch, in) and state h,c: (batch, hidden).
  std::pair<Value, Value> forward(const Value& x, const Value& h,
                                  const Value& c) const;

 private:
  std::string name_;
  Value wx_, wh_, b_;
  int64_t hidden_;
};

}  // namespace grace::nn
