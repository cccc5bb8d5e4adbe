#include "nn/layers.h"

namespace grace::nn {

Linear::Linear(Module& m, const std::string& name, int64_t in, int64_t out,
               Rng& rng)
    : name_(name) {
  w_ = m.register_parameter(name + ".W", he_normal(rng, Shape{{in, out}}, in)).value;
  b_ = m.register_parameter(name + ".b", Tensor::zeros(Shape{{out}})).value;
}

Linear::Linear(Module& m, const Linear& src)
    : name_(src.name_),
      w_(m.register_parameter(name_ + ".W", src.w_->data).value),
      b_(m.register_parameter(name_ + ".b", src.b_->data).value) {}

Value Linear::forward(const Value& x) const {
  return add_bias(matmul(x, w_), b_);
}

Conv2dLayer::Conv2dLayer(Module& m, const std::string& name, int64_t in_ch,
                         int64_t out_ch, int64_t kernel, int64_t stride,
                         int64_t pad, Rng& rng)
    : name_(name), stride_(stride), pad_(pad) {
  w_ = m.register_parameter(
             name + ".W",
             he_normal(rng, Shape{{out_ch, in_ch, kernel, kernel}},
                       in_ch * kernel * kernel))
           .value;
  b_ = m.register_parameter(name + ".b", Tensor::zeros(Shape{{out_ch}})).value;
}

Conv2dLayer::Conv2dLayer(Module& m, const Conv2dLayer& src)
    : name_(src.name_),
      w_(m.register_parameter(name_ + ".W", src.w_->data).value),
      b_(m.register_parameter(name_ + ".b", src.b_->data).value),
      stride_(src.stride_),
      pad_(src.pad_) {}

Value Conv2dLayer::forward(const Value& x) const {
  return conv2d(x, w_, b_, stride_, pad_);
}

EmbeddingLayer::EmbeddingLayer(Module& m, const std::string& name,
                               int64_t vocab, int64_t dim, Rng& rng)
    : name_(name) {
  Tensor t(DType::F32, Shape{{vocab, dim}});
  rng.fill_normal(t.f32(), 0.0f, 0.1f);
  table_ = m.register_parameter(name + ".table", std::move(t)).value;
}

EmbeddingLayer::EmbeddingLayer(Module& m, const EmbeddingLayer& src)
    : name_(src.name_),
      table_(m.register_parameter(name_ + ".table", src.table_->data).value) {}

Value EmbeddingLayer::forward(std::vector<int32_t> ids) const {
  return embedding(table_, std::move(ids));
}

LstmCell::LstmCell(Module& m, const std::string& name, int64_t in,
                   int64_t hidden, Rng& rng)
    : name_(name), hidden_(hidden) {
  wx_ = m.register_parameter(
              name + ".Wx", xavier_uniform(rng, Shape{{in, 4 * hidden}}, in, hidden))
            .value;
  wh_ = m.register_parameter(
              name + ".Wh",
              xavier_uniform(rng, Shape{{hidden, 4 * hidden}}, hidden, hidden))
            .value;
  Tensor bias = Tensor::zeros(Shape{{4 * hidden}});
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (int64_t j = hidden; j < 2 * hidden; ++j) bias.f32()[static_cast<size_t>(j)] = 1.0f;
  b_ = m.register_parameter(name + ".b", std::move(bias)).value;
}

LstmCell::LstmCell(Module& m, const LstmCell& src)
    : name_(src.name_),
      wx_(m.register_parameter(name_ + ".Wx", src.wx_->data).value),
      wh_(m.register_parameter(name_ + ".Wh", src.wh_->data).value),
      b_(m.register_parameter(name_ + ".b", src.b_->data).value),
      hidden_(src.hidden_) {}

std::pair<Value, Value> LstmCell::forward(const Value& x, const Value& h,
                                          const Value& c) const {
  Value gates = add_bias(add(matmul(x, wx_), matmul(h, wh_)), b_);
  Value i = sigmoid(slice_cols(gates, 0, hidden_));
  Value f = sigmoid(slice_cols(gates, hidden_, hidden_));
  Value g = tanh_op(slice_cols(gates, 2 * hidden_, hidden_));
  Value o = sigmoid(slice_cols(gates, 3 * hidden_, hidden_));
  Value c_next = add(hadamard(f, c), hadamard(i, g));
  Value h_next = hadamard(o, tanh_op(c_next));
  return {h_next, c_next};
}

}  // namespace grace::nn
