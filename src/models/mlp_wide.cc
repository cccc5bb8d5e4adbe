#include "models/mlp_wide.h"

namespace grace::models {

MlpWide::MlpWide(std::shared_ptr<const data::ImageDataset> data,
                 uint64_t init_seed, int64_t hidden)
    : data_(std::move(data)) {
  Rng rng(init_seed);
  in_dim_ = data_->channels * data_->height * data_->width;
  fc1_ = std::make_unique<nn::Linear>(module_, "fc1", in_dim_, hidden, rng);
  fc2_ = std::make_unique<nn::Linear>(module_, "fc2", hidden, hidden, rng);
  fc3_ = std::make_unique<nn::Linear>(module_, "fc3", hidden, data_->classes, rng);
  flops_ = 2.0 * static_cast<double>(in_dim_ * hidden + hidden * hidden +
                                     hidden * data_->classes);
}

MlpWide::MlpWide(const MlpWide& src)
    : data_(src.data_),
      fc1_(std::make_unique<nn::Linear>(module_, *src.fc1_)),
      fc2_(std::make_unique<nn::Linear>(module_, *src.fc2_)),
      fc3_(std::make_unique<nn::Linear>(module_, *src.fc3_)),
      flops_(src.flops_),
      in_dim_(src.in_dim_) {}

std::unique_ptr<DistributedModel> MlpWide::replicate() const {
  return std::unique_ptr<DistributedModel>(new MlpWide(*this));
}

nn::Value MlpWide::forward(const Tensor& batch_x) {
  Tensor flat = batch_x.reshaped(Shape{{batch_x.shape()[0], in_dim_}});
  auto x = nn::make_value(std::move(flat), /*requires_grad=*/false);
  auto h1 = nn::relu(fc1_->forward(x));
  auto h2 = nn::relu(fc2_->forward(h1));
  return fc3_->forward(h2);
}

float MlpWide::forward_backward(std::span<const int64_t> indices, Rng&) {
  Tensor bx = data::gather_rows(data_->train_x, indices);
  std::vector<int32_t> by(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    by[i] = data_->train_y[static_cast<size_t>(indices[i])];
  }
  auto loss = nn::softmax_cross_entropy(forward(bx), std::move(by));
  nn::backward(loss);
  return loss->data.item();
}

EvalResult MlpWide::evaluate() {
  return evaluate_classifier(*data_, /*batch=*/128,
                             [this](const Tensor& bx) { return forward(bx); });
}

}  // namespace grace::models
