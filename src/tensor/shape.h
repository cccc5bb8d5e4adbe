// Tensor shapes: a small value type describing the extent of each dimension.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace grace {

// Shape of a dense tensor. Rank 0 denotes a scalar (numel == 1).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t operator[](int i) const { return dims_.at(static_cast<size_t>(i)); }
  const std::vector<int64_t>& dims() const { return dims_; }

  // Total number of elements. 1 for a scalar shape.
  int64_t numel() const;

  // Interpret this shape as a 2-D matrix: first dimension x product of the
  // rest. Rank-1 shapes become (n, 1) columns. Used by low-rank compressors.
  Shape as_matrix() const;

  bool operator==(const Shape& o) const { return dims_ == o.dims_; }

  std::string to_string() const;

 private:
  std::vector<int64_t> dims_;
};

}  // namespace grace
