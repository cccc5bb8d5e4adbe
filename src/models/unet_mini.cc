#include "models/unet_mini.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace grace::models {
namespace {
constexpr int64_t kC1 = 8, kC2 = 16, kK = 3;
}

UNetMini::UNetMini(std::shared_ptr<const data::SegmentationDataset> data,
                   uint64_t init_seed, float iou_threshold)
    : data_(std::move(data)), iou_threshold_(iou_threshold) {
  Rng rng(init_seed);
  enc1_ = std::make_unique<nn::Conv2dLayer>(module_, "enc1", 1, kC1, kK, 1, 1, rng);
  enc2_ = std::make_unique<nn::Conv2dLayer>(module_, "enc2", kC1, kC2, kK, 1, 1, rng);
  dec1_ = std::make_unique<nn::Conv2dLayer>(module_, "dec1", kC2 + kC1, kC1, kK, 1, 1, rng);
  head_ = std::make_unique<nn::Conv2dLayer>(module_, "head", kC1, 1, 1, 1, 0, rng);
  const double hw = static_cast<double>(data_->height * data_->width);
  flops_ = 2.0 * (kC1 * 1 * kK * kK * hw + kC2 * kC1 * kK * kK * hw / 4.0 +
                  kC1 * (kC2 + kC1) * kK * kK * hw + kC1 * hw);
}

UNetMini::UNetMini(const UNetMini& src)
    : data_(src.data_),
      enc1_(std::make_unique<nn::Conv2dLayer>(module_, *src.enc1_)),
      enc2_(std::make_unique<nn::Conv2dLayer>(module_, *src.enc2_)),
      dec1_(std::make_unique<nn::Conv2dLayer>(module_, *src.dec1_)),
      head_(std::make_unique<nn::Conv2dLayer>(module_, *src.head_)),
      iou_threshold_(src.iou_threshold_),
      flops_(src.flops_) {}

std::unique_ptr<DistributedModel> UNetMini::replicate() const {
  return std::unique_ptr<DistributedModel>(new UNetMini(*this));
}

nn::Value UNetMini::forward(const Tensor& batch_x) {
  auto x = nn::make_value(batch_x, /*requires_grad=*/false);
  auto e1 = nn::relu(enc1_->forward(x));                  // (N, 8, H, W)
  auto e2 = nn::relu(enc2_->forward(nn::maxpool2x2(e1))); // (N, 16, H/2, W/2)
  auto up = nn::upsample2x(e2);                           // (N, 16, H, W)
  auto d1 = nn::relu(dec1_->forward(nn::concat_channels(up, e1)));
  return head_->forward(d1);                              // (N, 1, H, W) logits
}

float UNetMini::forward_backward(std::span<const int64_t> indices, Rng&) {
  Tensor bx = data::gather_rows(data_->train_x, indices);
  Tensor by = data::gather_rows(data_->train_y, indices);
  auto loss = nn::bce_with_logits(forward(bx), std::move(by));
  nn::backward(loss);
  return loss->data.item();
}

EvalResult UNetMini::evaluate() {
  const nn::NoGrad no_tape;
  constexpr int64_t kBatch = 32;
  const int64_t n = data_->test_size();
  double inter = 0.0, uni = 0.0, loss_sum = 0.0;
  for (int64_t at = 0; at < n; at += kBatch) {
    const int64_t b = std::min(kBatch, n - at);
    std::vector<int64_t> idx(static_cast<size_t>(b));
    std::iota(idx.begin(), idx.end(), at);
    Tensor bx = data::gather_rows(data_->test_x, idx);
    Tensor by = data::gather_rows(data_->test_y, idx);
    auto logits = forward(bx);
    auto z = logits->data.f32();
    auto t = by.f32();
    for (size_t i = 0; i < z.size(); ++i) {
      const bool pred = 1.0f / (1.0f + std::exp(-z[i])) > iou_threshold_;
      const bool truth = t[i] > 0.5f;
      inter += pred && truth ? 1.0 : 0.0;
      uni += pred || truth ? 1.0 : 0.0;
    }
    loss_sum += static_cast<double>(
                    nn::bce_with_logits(logits, std::move(by))->data.item()) *
                static_cast<double>(b);
  }
  return {uni > 0.0 ? inter / uni : 1.0, loss_sum / static_cast<double>(n)};
}

}  // namespace grace::models
