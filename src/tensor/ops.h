// Element-wise and reduction kernels over float spans. These are the
// primitives every compressor and optimizer is built from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace grace::ops {

void fill(std::span<float> x, float v);
// The binary kernels throw std::invalid_argument, in every build, when the
// two spans differ in size.
void scale(std::span<float> x, float a);                       // x *= a
void add(std::span<float> y, std::span<const float> x);        // y += x
void sub(std::span<float> y, std::span<const float> x);        // y -= x
void axpy(std::span<float> y, float a, std::span<const float> x);  // y += a*x
void copy(std::span<float> dst, std::span<const float> src);
void hadamard(std::span<float> y, std::span<const float> x);   // y *= x

float sum(std::span<const float> x);
float l1_norm(std::span<const float> x);
float l2_norm(std::span<const float> x);
float linf_norm(std::span<const float> x);  // max |x[i]|
float max(std::span<const float> x);
int64_t argmax(std::span<const float> x);
int64_t count_nonzero(std::span<const float> x);

// Indices of the k largest-magnitude elements, in ascending index order
// (k is clamped to [0, x.size()]). Elements rank by |x| descending, then by
// index ascending, so +0 and -0 tie and the set is unique; a NaN ranks
// above +inf (NaNs among themselves by payload bits).
std::vector<int32_t> topk_abs_indices(std::span<const float> x, int64_t k);
// Indices where |x[i]| > threshold.
std::vector<int32_t> threshold_indices(std::span<const float> x, float threshold);

}  // namespace grace::ops
