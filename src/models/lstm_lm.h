// LSTM language model (LSTM-PTB stand-in). embedding -> LSTM unrolled over
// a fixed window -> shared softmax head. Quality metric is test perplexity
// (reported as -perplexity so the trainer's higher-is-better bookkeeping
// applies uniformly).
#pragma once

#include "data/synthetic_text.h"
#include "models/model.h"
#include "nn/layers.h"

namespace grace::models {

class LstmLm final : public DistributedModel {
 public:
  LstmLm(std::shared_ptr<const data::TextDataset> data, uint64_t init_seed,
         int64_t embed_dim = 24, int64_t hidden = 48, int64_t seq_len = 12);

  nn::Module& module() override { return module_; }
  std::unique_ptr<DistributedModel> replicate() const override;
  float forward_backward(std::span<const int64_t> indices, Rng& rng) override;
  EvalResult evaluate() override;
  int64_t train_size() const override;
  double flops_per_sample() const override { return flops_; }
  std::string name() const override { return "lstm-lm"; }
  std::string quality_metric() const override { return "test-perplexity"; }

  double test_perplexity();

 private:
  LstmLm(const LstmLm& src);  // replicate()

  // Mean cross-entropy over the windows starting at the given stream
  // offsets of `stream`.
  nn::Value window_loss(const std::vector<int32_t>& stream,
                        std::span<const int64_t> starts);

  std::shared_ptr<const data::TextDataset> data_;
  nn::Module module_;
  std::unique_ptr<nn::EmbeddingLayer> embed_;
  std::unique_ptr<nn::LstmCell> cell_;
  std::unique_ptr<nn::Linear> head_;
  int64_t embed_dim_, hidden_, seq_len_;
  double flops_ = 0.0;
};

}  // namespace grace::models
