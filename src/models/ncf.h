// Neural collaborative filtering (He et al., WWW'17) stand-in for the
// paper's recommendation benchmark: user/item embedding tables feeding a
// small MLP with a sigmoid head, trained with BCE on observed positives and
// sampled negatives. Embedding tables dominate the parameter count, making
// the model communication-bound like the paper's NCF. Quality is
// leave-one-out hit-rate@10.
#pragma once

#include "data/synthetic_recsys.h"
#include "models/model.h"
#include "nn/layers.h"

namespace grace::models {

class NcfRecommender final : public DistributedModel {
 public:
  NcfRecommender(std::shared_ptr<const data::RecsysDataset> data,
                 uint64_t init_seed, int64_t embed_dim = 16,
                 int64_t negatives_per_positive = 2);

  nn::Module& module() override { return module_; }
  std::unique_ptr<DistributedModel> replicate() const override;
  float forward_backward(std::span<const int64_t> indices, Rng& rng) override;
  EvalResult evaluate() override;
  int64_t train_size() const override { return data_->train_size(); }
  double flops_per_sample() const override { return flops_; }
  std::string name() const override { return "ncf"; }
  std::string quality_metric() const override { return "hit-rate@10"; }

 private:
  NcfRecommender(const NcfRecommender& src);  // replicate()

  // Sigmoid-less scores for (user, item) pairs; shape (n, 1).
  nn::Value score(std::vector<int32_t> users, std::vector<int32_t> items);

  std::shared_ptr<const data::RecsysDataset> data_;
  nn::Module module_;
  std::unique_ptr<nn::EmbeddingLayer> user_emb_, item_emb_;
  std::unique_ptr<nn::Linear> fc1_, fc2_, out_;
  int64_t embed_dim_, negatives_;
  double flops_ = 0.0;
};

}  // namespace grace::models
