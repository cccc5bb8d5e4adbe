#include "models/ncf.h"

#include <algorithm>

#include "tensor/ops.h"

namespace grace::models {
namespace {
constexpr int64_t kH1 = 32, kH2 = 16;
constexpr int64_t kEvalNegatives = 99;  // standard NCF leave-one-out protocol
constexpr int64_t kEvalUsers = 128;
}

NcfRecommender::NcfRecommender(std::shared_ptr<const data::RecsysDataset> data,
                               uint64_t init_seed, int64_t embed_dim,
                               int64_t negatives_per_positive)
    : data_(std::move(data)), embed_dim_(embed_dim), negatives_(negatives_per_positive) {
  Rng rng(init_seed);
  user_emb_ = std::make_unique<nn::EmbeddingLayer>(module_, "user_emb",
                                                   data_->n_users, embed_dim_, rng);
  item_emb_ = std::make_unique<nn::EmbeddingLayer>(module_, "item_emb",
                                                   data_->n_items, embed_dim_, rng);
  fc1_ = std::make_unique<nn::Linear>(module_, "fc1", 2 * embed_dim_, kH1, rng);
  fc2_ = std::make_unique<nn::Linear>(module_, "fc2", kH1, kH2, rng);
  out_ = std::make_unique<nn::Linear>(module_, "out", kH2, 1, rng);
  flops_ = 2.0 * static_cast<double>(2 * embed_dim_ * kH1 + kH1 * kH2 + kH2) *
           static_cast<double>(1 + negatives_);
}

NcfRecommender::NcfRecommender(const NcfRecommender& src)
    : data_(src.data_),
      user_emb_(std::make_unique<nn::EmbeddingLayer>(module_, *src.user_emb_)),
      item_emb_(std::make_unique<nn::EmbeddingLayer>(module_, *src.item_emb_)),
      fc1_(std::make_unique<nn::Linear>(module_, *src.fc1_)),
      fc2_(std::make_unique<nn::Linear>(module_, *src.fc2_)),
      out_(std::make_unique<nn::Linear>(module_, *src.out_)),
      embed_dim_(src.embed_dim_),
      negatives_(src.negatives_),
      flops_(src.flops_) {}

std::unique_ptr<DistributedModel> NcfRecommender::replicate() const {
  return std::unique_ptr<DistributedModel>(new NcfRecommender(*this));
}

nn::Value NcfRecommender::score(std::vector<int32_t> users,
                                std::vector<int32_t> items) {
  auto u = user_emb_->forward(std::move(users));
  auto v = item_emb_->forward(std::move(items));
  auto h = nn::relu(fc1_->forward(nn::concat_cols(u, v)));
  return out_->forward(nn::relu(fc2_->forward(h)));
}

float NcfRecommender::forward_backward(std::span<const int64_t> indices,
                                       Rng& rng) {
  std::vector<int32_t> users, items;
  std::vector<float> targets;
  users.reserve(indices.size() * static_cast<size_t>(1 + negatives_));
  for (int64_t idx : indices) {
    const auto& [u, i] = data_->train_pos[static_cast<size_t>(idx)];
    users.push_back(u);
    items.push_back(i);
    targets.push_back(1.0f);
    for (int64_t neg = 0; neg < negatives_; ++neg) {
      users.push_back(u);
      items.push_back(static_cast<int32_t>(rng.uniform_int(data_->n_items)));
      targets.push_back(0.0f);
    }
  }
  const auto n = static_cast<int64_t>(targets.size());
  auto logits = score(std::move(users), std::move(items));
  auto loss = nn::bce_with_logits(
      logits, Tensor::from(targets, Shape{{n, 1}}));
  nn::backward(loss);
  return loss->data.item();
}

EvalResult NcfRecommender::evaluate() {
  // Leave-one-out: the held-out positive must rank in the top 10 among
  // kEvalNegatives random unseen items. Fixed seed => deterministic metric.
  const nn::NoGrad no_tape;
  Rng rng(0xE7A1);
  const int64_t users_n = std::min<int64_t>(kEvalUsers, data_->n_users);
  int64_t hits = 0;
  double loss_sum = 0.0;
  for (int64_t u = 0; u < users_n; ++u) {
    std::vector<int32_t> users(static_cast<size_t>(1 + kEvalNegatives), static_cast<int32_t>(u));
    std::vector<int32_t> items;
    items.push_back(data_->test_item_for_user[static_cast<size_t>(u)]);
    for (int64_t i = 0; i < kEvalNegatives; ++i) {
      items.push_back(static_cast<int32_t>(rng.uniform_int(data_->n_items)));
    }
    auto logits = score(std::move(users), std::move(items));
    auto z = logits->data.f32();
    int rank = 0;
    for (size_t i = 1; i < z.size(); ++i) {
      if (z[i] >= z[0]) ++rank;
    }
    if (rank < 10) ++hits;
    loss_sum += -z[0];  // proxy: higher positive score = lower loss
  }
  return {static_cast<double>(hits) / static_cast<double>(users_n),
          loss_sum / static_cast<double>(users_n)};
}

}  // namespace grace::models
