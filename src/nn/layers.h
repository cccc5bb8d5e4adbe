// Reusable layers. Each layer registers its parameters into the owning
// Module at construction and exposes a pure forward() over graph values.
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
  Value forward(const Value& x) const;  // x: (batch, in) -> (batch, out)

 private:
  Value w_, b_;
};

class Conv2dLayer {
 public:
  Conv2dLayer(Module& m, const std::string& name, int64_t in_ch, int64_t out_ch,
              int64_t kernel, int64_t stride, int64_t pad, Rng& rng);
  Value forward(const Value& x) const;

 private:
  Value w_, b_;
  int64_t stride_, pad_;
};

class EmbeddingLayer {
 public:
  EmbeddingLayer(Module& m, const std::string& name, int64_t vocab, int64_t dim,
                 Rng& rng);
  Value forward(std::vector<int32_t> ids) const;

 private:
  Value table_;
};

class LstmCell {
 public:
  LstmCell(Module& m, const std::string& name, int64_t in, int64_t hidden,
           Rng& rng);
  // Returns {h', c'} given input x: (batch, in) and state h,c: (batch, hidden).
  std::pair<Value, Value> forward(const Value& x, const Value& h,
                                  const Value& c) const;

 private:
  Value wx_, wh_, b_;
  int64_t hidden_;
};

}  // namespace grace::nn
