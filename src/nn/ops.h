// Differentiable operations. Each returns a new graph node whose backward
// closure accumulates into the parents (under a NoGrad guard, a plain value:
// see nn/value.h). Shapes use the convention:
// matrices are (rows, cols) row-major; batches are along rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/value.h"

namespace grace::nn {

Value add(const Value& a, const Value& b);       // same shape
Value sub(const Value& a, const Value& b);       // same shape
Value hadamard(const Value& a, const Value& b);  // element-wise product
Value scale(const Value& a, float s);
// x: (m, n), bias: (n). Adds bias to every row.
Value add_bias(const Value& x, const Value& bias);
// a: (m, k), b: (k, n) -> (m, n)
Value matmul(const Value& a, const Value& b);

Value relu(const Value& a);
Value sigmoid(const Value& a);
Value tanh_op(const Value& a);

// View with a new shape (same numel); gradient flows through unchanged.
Value reshape(const Value& a, Shape shape);
// Columns [start, start+len) of a (m, n) matrix.
Value slice_cols(const Value& a, int64_t start, int64_t len);
// Concatenate two matrices along columns: (m, n1) ++ (m, n2) -> (m, n1+n2).
Value concat_cols(const Value& a, const Value& b);

Value sum_all(const Value& a);   // -> scalar
Value mean_all(const Value& a);  // -> scalar

// Row ids select rows of table (vocab, dim) -> (ids.size(), dim).
// Backward scatter-adds into the table gradient (dense).
Value embedding(const Value& table, std::vector<int32_t> ids);

// Mean cross-entropy of softmax(logits) vs integer labels.
// logits: (m, classes); labels.size() == m.
Value softmax_cross_entropy(const Value& logits, std::vector<int32_t> labels);

// Mean binary cross-entropy with logits; targets in [0,1], same shape.
Value bce_with_logits(const Value& logits, Tensor targets);

// Mean squared error (mean over all elements).
Value mse_loss(const Value& pred, Tensor target);

}  // namespace grace::nn
