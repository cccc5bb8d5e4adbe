#include "tensor/tensor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace grace {

Tensor::Tensor(DType dtype, Shape shape, std::vector<std::byte> storage)
    : dtype_(dtype), shape_(std::move(shape)), data_(std::move(storage)) {
  const auto want = static_cast<size_t>(shape_.numel()) * dtype_size(dtype_);
  if (data_.size() != want) {
    fail("storage bytes", static_cast<int64_t>(want),
         static_cast<int64_t>(data_.size()));
  }
}

Tensor Tensor::from(std::span<const float> values, Shape shape) {
  assert(static_cast<int64_t>(values.size()) == shape.numel());
  Tensor t(DType::F32, std::move(shape));
  std::copy(values.begin(), values.end(), t.f32().begin());
  return t;
}

Tensor Tensor::from_i32(std::span<const int32_t> values) {
  Tensor t(DType::I32, Shape{{static_cast<int64_t>(values.size())}});
  std::copy(values.begin(), values.end(), t.i32().begin());
  return t;
}

Tensor Tensor::full(Shape shape, float v) {
  Tensor t(DType::F32, std::move(shape));
  std::fill(t.f32().begin(), t.f32().end(), v);
  return t;
}

void Tensor::assign(std::span<const float> values) {
  const auto n = static_cast<int64_t>(values.size());
  dtype_ = DType::F32;
  if (shape_.rank() != 1 || shape_[0] != n) shape_ = Shape{{n}};
  data_.resize(values.size_bytes());
  if (n > 0) std::memcpy(data_.data(), values.data(), values.size_bytes());
}

void Tensor::fail(const char* check, int64_t want, int64_t have) {
  throw std::runtime_error(std::string("Tensor: ") + check + " mismatch: want " +
                           std::to_string(want) + ", have " +
                           std::to_string(have));
}

Tensor Tensor::reshaped(Shape s) const {
  Tensor t = *this;
  t.set_shape(std::move(s));
  return t;
}

}  // namespace grace
