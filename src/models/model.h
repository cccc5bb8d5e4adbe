// Model replica interface for the distributed trainer. Each worker owns one
// replica; replicas built with the same seed start bit-identical, and
// replicate() copies one. The parameter list of module() is the sequence of
// gradient vectors the GRACE pipeline compresses per iteration.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "nn/module.h"
#include "tensor/rng.h"

namespace grace::data {
struct ImageDataset;
}

namespace grace::models {

struct EvalResult {
  double quality = 0.0;  // task metric: accuracy, hit rate, -perplexity, IoU
  double loss = 0.0;     // mean test loss
};

// For perplexity, lower is better; the trainer tracks `quality` with
// higher-is-better semantics, so LM models report -perplexity.
class DistributedModel {
 public:
  virtual ~DistributedModel() = default;

  virtual nn::Module& module() = 0;

  // A new replica holding a copy of this one's current parameters (not a
  // fresh draw from the init seed: parameters overwritten after
  // construction are copied as they are now), with the same names, shapes
  // and order, and zeroed gradients. It owns its parameter storage and
  // shares only the read-only dataset with this one, so the two may train
  // on different threads.
  virtual std::unique_ptr<DistributedModel> replicate() const = 0;

  // Runs forward + backward on the samples selected by `indices` (into the
  // model's training set); gradients accumulate in module parameters
  // (call module().zero_grad() first). Returns the mini-batch loss.
  // `rng` supplies any per-batch sampling (e.g. NCF negatives).
  virtual float forward_backward(std::span<const int64_t> indices, Rng& rng) = 0;

  // Quality on the held-out test set, computed under an nn::NoGrad guard:
  // no gradient buffers, no retained graph.
  virtual EvalResult evaluate() = 0;

  virtual int64_t train_size() const = 0;
  // Analytic forward FLOPs per training sample (backward counted as 2x
  // forward by the time model).
  virtual double flops_per_sample() const = 0;
  virtual std::string name() const = 0;
  virtual std::string quality_metric() const = 0;
};

// A classifier's evaluate(): top-1 accuracy and mean softmax cross-entropy
// of `forward`'s logits over the test split of `data`, `batch` samples per
// call, under one nn::NoGrad guard.
EvalResult evaluate_classifier(
    const data::ImageDataset& data, int64_t batch,
    const std::function<nn::Value(const Tensor&)>& forward);

}  // namespace grace::models
