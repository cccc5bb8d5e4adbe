#include "models/cnn_small.h"

namespace grace::models {
namespace {
// Channel widths chosen so convolution FLOPs dominate the parameter count
// (ResNet-like compute:bytes ratio, ~60 FLOPs per parameter byte), keeping
// this benchmark compute-bound on the simulated cluster like the paper's
// ResNet-20 panel. The classifier head maps pooled features directly to
// logits to avoid a parameter-heavy FC tail.
constexpr int64_t kC1 = 16, kC2 = 32, kKernel = 3;
}

CnnSmall::CnnSmall(std::shared_ptr<const data::ImageDataset> data,
                   uint64_t init_seed)
    : data_(std::move(data)) {
  Rng rng(init_seed);
  const int64_t c = data_->channels, h = data_->height, w = data_->width;
  conv1_ = std::make_unique<nn::Conv2dLayer>(module_, "conv1", c, kC1, kKernel,
                                             1, 1, rng);
  conv2_ = std::make_unique<nn::Conv2dLayer>(module_, "conv2", kC1, kC2,
                                             kKernel, 1, 1, rng);
  flat_dim_ = kC2 * (h / 4) * (w / 4);
  fc_ = std::make_unique<nn::Linear>(module_, "fc", flat_dim_, data_->classes, rng);
  // Forward FLOPs: 2 * MACs for convs (at full and half resolution) + head.
  flops_ = 2.0 * static_cast<double>(kC1 * c * kKernel * kKernel * h * w) +
           2.0 * static_cast<double>(kC2 * kC1 * kKernel * kKernel * (h / 2) * (w / 2)) +
           2.0 * static_cast<double>(flat_dim_ * data_->classes);
}

CnnSmall::CnnSmall(const CnnSmall& src)
    : data_(src.data_),
      conv1_(std::make_unique<nn::Conv2dLayer>(module_, *src.conv1_)),
      conv2_(std::make_unique<nn::Conv2dLayer>(module_, *src.conv2_)),
      fc_(std::make_unique<nn::Linear>(module_, *src.fc_)),
      flops_(src.flops_),
      flat_dim_(src.flat_dim_) {}

std::unique_ptr<DistributedModel> CnnSmall::replicate() const {
  return std::unique_ptr<DistributedModel>(new CnnSmall(*this));
}

nn::Value CnnSmall::forward(const Tensor& batch_x) {
  auto x = nn::make_value(batch_x, /*requires_grad=*/false);
  auto h1 = nn::maxpool2x2(nn::relu(conv1_->forward(x)));
  auto h2 = nn::maxpool2x2(nn::relu(conv2_->forward(h1)));
  auto flat = nn::reshape(h2, Shape{{batch_x.shape()[0], flat_dim_}});
  return fc_->forward(flat);
}

float CnnSmall::forward_backward(std::span<const int64_t> indices, Rng&) {
  Tensor bx = data::gather_rows(data_->train_x, indices);
  std::vector<int32_t> by(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    by[i] = data_->train_y[static_cast<size_t>(indices[i])];
  }
  auto loss = nn::softmax_cross_entropy(forward(bx), std::move(by));
  nn::backward(loss);
  return loss->data.item();
}

EvalResult CnnSmall::evaluate() {
  return evaluate_classifier(*data_, /*batch=*/64,
                             [this](const Tensor& bx) { return forward(bx); });
}

}  // namespace grace::models
