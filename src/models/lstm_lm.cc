#include "models/lstm_lm.h"

#include <cmath>

namespace grace::models {

LstmLm::LstmLm(std::shared_ptr<const data::TextDataset> data,
               uint64_t init_seed, int64_t embed_dim, int64_t hidden,
               int64_t seq_len)
    : data_(std::move(data)),
      embed_dim_(embed_dim),
      hidden_(hidden),
      seq_len_(seq_len) {
  Rng rng(init_seed);
  embed_ = std::make_unique<nn::EmbeddingLayer>(module_, "embed", data_->vocab,
                                                embed_dim_, rng);
  cell_ = std::make_unique<nn::LstmCell>(module_, "lstm", embed_dim_, hidden_, rng);
  head_ = std::make_unique<nn::Linear>(module_, "head", hidden_, data_->vocab, rng);
  // Per token: LSTM gates + softmax head (2 * MACs).
  flops_ = 2.0 * static_cast<double>(embed_dim_ * 4 * hidden_ +
                                     hidden_ * 4 * hidden_ + hidden_ * data_->vocab) *
           static_cast<double>(seq_len_);
}

LstmLm::LstmLm(const LstmLm& src)
    : data_(src.data_),
      embed_(std::make_unique<nn::EmbeddingLayer>(module_, *src.embed_)),
      cell_(std::make_unique<nn::LstmCell>(module_, *src.cell_)),
      head_(std::make_unique<nn::Linear>(module_, *src.head_)),
      embed_dim_(src.embed_dim_),
      hidden_(src.hidden_),
      seq_len_(src.seq_len_),
      flops_(src.flops_) {}

std::unique_ptr<DistributedModel> LstmLm::replicate() const {
  return std::unique_ptr<DistributedModel>(new LstmLm(*this));
}

int64_t LstmLm::train_size() const {
  return static_cast<int64_t>(data_->train_tokens.size()) - seq_len_ - 1;
}

nn::Value LstmLm::window_loss(const std::vector<int32_t>& stream,
                              std::span<const int64_t> starts) {
  const auto batch = static_cast<int64_t>(starts.size());
  auto h = nn::make_value(Tensor::zeros(Shape{{batch, hidden_}}), false);
  auto c = nn::make_value(Tensor::zeros(Shape{{batch, hidden_}}), false);
  nn::Value total;
  for (int64_t t = 0; t < seq_len_; ++t) {
    std::vector<int32_t> tokens(static_cast<size_t>(batch));
    std::vector<int32_t> targets(static_cast<size_t>(batch));
    for (int64_t b = 0; b < batch; ++b) {
      tokens[static_cast<size_t>(b)] = stream[static_cast<size_t>(starts[static_cast<size_t>(b)] + t)];
      targets[static_cast<size_t>(b)] = stream[static_cast<size_t>(starts[static_cast<size_t>(b)] + t + 1)];
    }
    auto x = embed_->forward(std::move(tokens));
    auto [h_next, c_next] = cell_->forward(x, h, c);
    h = h_next;
    c = c_next;
    auto step_loss = nn::softmax_cross_entropy(head_->forward(h), std::move(targets));
    total = total ? nn::add(total, step_loss) : step_loss;
  }
  return nn::scale(total, 1.0f / static_cast<float>(seq_len_));
}

float LstmLm::forward_backward(std::span<const int64_t> indices, Rng&) {
  auto loss = window_loss(data_->train_tokens, indices);
  nn::backward(loss);
  return loss->data.item();
}

double LstmLm::test_perplexity() {
  const nn::NoGrad no_tape;
  // Non-overlapping windows across the test stream, batched.
  const auto n = static_cast<int64_t>(data_->test_tokens.size()) - 1;
  constexpr int64_t kBatch = 32;
  std::vector<int64_t> starts;
  double loss_sum = 0.0;
  int64_t windows = 0;
  auto flush = [&] {
    if (starts.empty()) return;
    loss_sum += static_cast<double>(
                    window_loss(data_->test_tokens, starts)->data.item()) *
                static_cast<double>(starts.size());
    windows += static_cast<int64_t>(starts.size());
    starts.clear();
  };
  for (int64_t at = 0; at + seq_len_ < n; at += seq_len_) {
    starts.push_back(at);
    if (static_cast<int64_t>(starts.size()) == kBatch) flush();
  }
  flush();
  return windows ? std::exp(loss_sum / static_cast<double>(windows)) : 0.0;
}

EvalResult LstmLm::evaluate() {
  const double ppl = test_perplexity();
  return {-ppl, std::log(ppl)};
}

}  // namespace grace::models
