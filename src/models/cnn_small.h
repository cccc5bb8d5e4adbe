// Small convolutional classifier (ResNet-20 / DenseNet40 class stand-in:
// compute-bound, few parameters). conv-relu-pool x2 -> fc-relu -> fc.
#pragma once

#include "data/synthetic_images.h"
#include "models/model.h"
#include "nn/layers.h"

namespace grace::models {

class CnnSmall final : public DistributedModel {
 public:
  CnnSmall(std::shared_ptr<const data::ImageDataset> data, uint64_t init_seed);

  nn::Module& module() override { return module_; }
  std::unique_ptr<DistributedModel> replicate() const override;
  float forward_backward(std::span<const int64_t> indices, Rng& rng) override;
  EvalResult evaluate() override;
  int64_t train_size() const override { return data_->train_size(); }
  double flops_per_sample() const override { return flops_; }
  std::string name() const override { return "cnn-small"; }
  std::string quality_metric() const override { return "top1-accuracy"; }

 private:
  CnnSmall(const CnnSmall& src);  // replicate()
  nn::Value forward(const Tensor& batch_x);

  std::shared_ptr<const data::ImageDataset> data_;
  nn::Module module_;
  std::unique_ptr<nn::Conv2dLayer> conv1_, conv2_;
  std::unique_ptr<nn::Linear> fc_;
  double flops_ = 0.0;
  int64_t flat_dim_ = 0;
};

}  // namespace grace::models
