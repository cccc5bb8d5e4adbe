// Dense CPU tensor with raw byte storage and typed span views.
//
// Tensors are plain value types: copyable, movable, and always contiguous.
// The raw-byte representation makes wire accounting trivial (size_bytes() is
// exactly what a serializer would transmit for the standard representation
// the paper uses: 4 bytes per float32/int32, 1 byte per u8).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace grace {

namespace detail {
// std::allocator, except that a construct with no value default-initializes:
// growing a vector of bytes leaves the new bytes unwritten.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};
}  // namespace detail

// A tensor's storage: `Bytes(n)` allocates n bytes without writing them.
using Bytes = std::vector<std::byte, detail::DefaultInitAllocator<std::byte>>;

class Tensor {
 public:
  Tensor() = default;
  // Zero-filled.
  Tensor(DType dtype, Shape shape);
  // Adopts `storage` as the tensor's bytes, with no zero fill and no copy.
  // Its size must be numel * dtype size (std::runtime_error).
  Tensor(DType dtype, Shape shape, Bytes storage);
  // Storage for a kernel that writes every element, left unwritten. A
  // sanitizer build fills it with 0xFF bytes (a NaN as f32), so an element
  // the kernel skips shows up in the bitwise tests.
  static Tensor for_overwrite(DType dtype, Shape shape);
  // A copy of `bytes`, numel * dtype size of them (std::runtime_error).
  static Tensor from_bytes(DType dtype, Shape shape,
                           std::span<const std::byte> bytes);
  // Out of line, one memcpy each: Bytes' allocator would have every copy
  // site inline a byte loop instead.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  static Tensor zeros(Shape shape) { return Tensor(DType::F32, std::move(shape)); }
  static Tensor zeros_like(const Tensor& t) { return Tensor(t.dtype(), t.shape()); }
  static Tensor from(std::span<const float> values, Shape shape);
  static Tensor from(std::span<const float> values) {
    return from(values, Shape{{static_cast<int64_t>(values.size())}});
  }
  static Tensor from_i32(std::span<const int32_t> values);
  static Tensor scalar(float v) { return from(std::span<const float>(&v, 1), Shape{}); }
  static Tensor full(Shape shape, float v);

  DType dtype() const { return dtype_; }
  const Shape& shape() const { return shape_; }
  int64_t numel() const { return shape_.numel(); }
  size_t size_bytes() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Typed views. The dtype is checked (std::runtime_error), not converted.
  std::span<float> f32() {
    check_dtype(DType::F32);
    return {reinterpret_cast<float*>(data_.data()), static_cast<size_t>(numel())};
  }
  std::span<const float> f32() const {
    check_dtype(DType::F32);
    return {reinterpret_cast<const float*>(data_.data()), static_cast<size_t>(numel())};
  }
  std::span<int32_t> i32() {
    check_dtype(DType::I32);
    return {reinterpret_cast<int32_t*>(data_.data()), static_cast<size_t>(numel())};
  }
  std::span<const int32_t> i32() const {
    check_dtype(DType::I32);
    return {reinterpret_cast<const int32_t*>(data_.data()), static_cast<size_t>(numel())};
  }
  std::span<uint8_t> u8() {
    check_dtype(DType::U8);
    return {reinterpret_cast<uint8_t*>(data_.data()), static_cast<size_t>(numel())};
  }
  std::span<const uint8_t> u8() const {
    check_dtype(DType::U8);
    return {reinterpret_cast<const uint8_t*>(data_.data()), static_cast<size_t>(numel())};
  }

  std::span<const std::byte> bytes() const { return {data_.data(), data_.size()}; }
  std::span<std::byte> bytes() { return {data_.data(), data_.size()}; }

  // Refill as a 1-D f32 tensor holding a copy of `values`, reusing this
  // tensor's storage: no allocation once its capacity suffices.
  void assign(std::span<const float> values);

  // Reinterpret with a new shape; numel must match (std::runtime_error).
  Tensor reshaped(Shape s) const;
  void set_shape(Shape s) {
    if (s.numel() != numel()) fail("element count", s.numel(), numel());
    shape_ = std::move(s);
  }

  float item() const {
    assert(numel() == 1);
    return f32()[0];
  }

 private:
  void check_dtype(DType want) const {
    if (dtype_ != want) {
      fail("dtype", static_cast<int64_t>(want), static_cast<int64_t>(dtype_));
    }
  }
  // Throws std::runtime_error naming the failed check. Out of line, so each
  // inline check above stays one compare in every build.
  [[noreturn]] static void fail(const char* check, int64_t want, int64_t have);

  DType dtype_ = DType::F32;
  Shape shape_{{0}};
  Bytes data_;
};

}  // namespace grace
