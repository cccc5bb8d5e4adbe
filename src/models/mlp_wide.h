// Wide fully-connected classifier (VGG-16/19 class stand-in: parameter
// heavy relative to its FLOPs, so training is communication-bound on the
// simulated cluster). flatten -> fc-relu -> fc-relu -> fc.
#pragma once

#include "data/synthetic_images.h"
#include "models/model.h"
#include "nn/layers.h"

namespace grace::models {

class MlpWide final : public DistributedModel {
 public:
  MlpWide(std::shared_ptr<const data::ImageDataset> data, uint64_t init_seed,
          int64_t hidden = 512);

  nn::Module& module() override { return module_; }
  std::unique_ptr<DistributedModel> replicate() const override;
  float forward_backward(std::span<const int64_t> indices, Rng& rng) override;
  EvalResult evaluate() override;
  int64_t train_size() const override { return data_->train_size(); }
  double flops_per_sample() const override { return flops_; }
  std::string name() const override { return "mlp-wide"; }
  std::string quality_metric() const override { return "top1-accuracy"; }

 private:
  MlpWide(const MlpWide& src);  // replicate()
  nn::Value forward(const Tensor& batch_x);

  std::shared_ptr<const data::ImageDataset> data_;
  nn::Module module_;
  std::unique_ptr<nn::Linear> fc1_, fc2_, fc3_;
  double flops_ = 0.0;
  int64_t in_dim_ = 0;
};

}  // namespace grace::models
