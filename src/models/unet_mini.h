// Miniature U-Net (Ronneberger et al.) for the segmentation benchmark:
// one down/up level with a skip connection, BCE-with-logits loss, IoU
// quality metric. Convolution-heavy with few parameters => compute-bound,
// like the paper's U-Net on DAGM2007.
#pragma once

#include "data/synthetic_segmentation.h"
#include "models/model.h"
#include "nn/layers.h"

namespace grace::models {

class UNetMini final : public DistributedModel {
 public:
  UNetMini(std::shared_ptr<const data::SegmentationDataset> data,
           uint64_t init_seed, float iou_threshold = 0.5f);

  nn::Module& module() override { return module_; }
  std::unique_ptr<DistributedModel> replicate() const override;
  float forward_backward(std::span<const int64_t> indices, Rng& rng) override;
  EvalResult evaluate() override;
  int64_t train_size() const override { return data_->train_size(); }
  double flops_per_sample() const override { return flops_; }
  std::string name() const override { return "unet-mini"; }
  std::string quality_metric() const override { return "iou"; }

 private:
  UNetMini(const UNetMini& src);  // replicate()
  nn::Value forward(const Tensor& batch_x);

  std::shared_ptr<const data::SegmentationDataset> data_;
  nn::Module module_;
  std::unique_ptr<nn::Conv2dLayer> enc1_, enc2_, dec1_, head_;
  float iou_threshold_;
  double flops_ = 0.0;
};

}  // namespace grace::models
