#include "models/model.h"

#include <algorithm>
#include <numeric>

#include "data/dataset.h"
#include "nn/ops.h"
#include "tensor/ops.h"

namespace grace::models {

EvalResult evaluate_classifier(
    const data::ImageDataset& data, int64_t batch,
    const std::function<nn::Value(const Tensor&)>& forward) {
  const nn::NoGrad no_tape;
  const int64_t n = data.test_size();
  int64_t correct = 0;
  double loss_sum = 0.0;
  for (int64_t at = 0; at < n; at += batch) {
    const int64_t b = std::min(batch, n - at);
    std::vector<int64_t> idx(static_cast<size_t>(b));
    std::iota(idx.begin(), idx.end(), at);
    Tensor bx = data::gather_rows(data.test_x, idx);
    std::vector<int32_t> by(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i) by[static_cast<size_t>(i)] = data.test_y[static_cast<size_t>(at + i)];
    auto logits = forward(bx);
    auto z = logits->data.f32();
    const int64_t classes = data.classes;
    for (int64_t i = 0; i < b; ++i) {
      const auto row = z.subspan(static_cast<size_t>(i * classes), static_cast<size_t>(classes));
      if (ops::argmax(row) == by[static_cast<size_t>(i)]) ++correct;
    }
    loss_sum += static_cast<double>(
                    nn::softmax_cross_entropy(logits, std::move(by))->data.item()) *
                static_cast<double>(b);
  }
  return {static_cast<double>(correct) / static_cast<double>(n), loss_sum / static_cast<double>(n)};
}

}  // namespace grace::models
