#include "tensor/tensor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace grace {

Tensor::Tensor(DType dtype, Shape shape)
    : dtype_(dtype),
      shape_(std::move(shape)),
      data_(static_cast<size_t>(shape_.numel()) * dtype_size(dtype)) {
  if (!data_.empty()) std::memset(data_.data(), 0, data_.size());
}

Tensor::Tensor(const Tensor& other)
    : dtype_(other.dtype_), shape_(other.shape_), data_(other.data_.size()) {
  if (!data_.empty()) std::memcpy(data_.data(), other.data_.data(), data_.size());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    dtype_ = other.dtype_;
    shape_ = other.shape_;
    // Emptied first, so a grow moves no old bytes.
    data_.clear();
    data_.resize(other.data_.size());
    if (!data_.empty()) std::memcpy(data_.data(), other.data_.data(), data_.size());
  }
  return *this;
}

Tensor::Tensor(DType dtype, Shape shape, Bytes storage)
    : dtype_(dtype), shape_(std::move(shape)), data_(std::move(storage)) {
  const auto want = static_cast<size_t>(shape_.numel()) * dtype_size(dtype_);
  if (data_.size() != want) {
    fail("storage bytes", static_cast<int64_t>(want),
         static_cast<int64_t>(data_.size()));
  }
}

Tensor Tensor::for_overwrite(DType dtype, Shape shape) {
  Bytes storage(static_cast<size_t>(shape.numel()) * dtype_size(dtype));
#ifdef __SANITIZE_ADDRESS__
  std::memset(storage.data(), 0xFF, storage.size());
#endif
  return Tensor(dtype, std::move(shape), std::move(storage));
}

Tensor Tensor::from_bytes(DType dtype, Shape shape,
                          std::span<const std::byte> bytes) {
  Bytes storage(bytes.size());
  if (!bytes.empty()) std::memcpy(storage.data(), bytes.data(), bytes.size());
  return Tensor(dtype, std::move(shape), std::move(storage));
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
  data_.clear();
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
