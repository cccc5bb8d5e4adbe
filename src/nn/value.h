// A small tape-based reverse-mode autograd engine over dense tensors.
//
// Each forward op builds a Node holding its output tensor, links to its
// parent nodes, and a closure that propagates the node's gradient into the
// parents' gradients. backward() runs the closures in reverse topological
// order. Leaves (model parameters) persist across iterations and accumulate
// gradients until zero_grad().
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace grace::nn {

struct Node;
using Value = std::shared_ptr<Node>;

struct Node {
  Tensor data;  // always DType::F32
  Tensor grad;  // same shape as data, zero-initialized
  std::vector<Value> parents;
  // Propagates this->grad into parents' grad tensors. Null for leaves.
  std::function<void(Node&)> backward_fn;
  // False for a leaf whose gradient nobody reads: a data batch, an LSTM's
  // zero state. Backward need not write such a node's grad, and conv2d
  // (its dX) and matmul (its dA) skip it, so it stays all zero. Parameters
  // and op outputs keep true.
  bool requires_grad = true;

  explicit Node(Tensor d) : data(std::move(d)), grad(Tensor::zeros_like(data)) {}
};

// Wrap a tensor as a graph node. Leaves have no parents/backward_fn.
Value make_value(Tensor data, bool requires_grad = true);

// Run reverse-mode accumulation from a scalar root (numel()==1 required);
// the root's gradient is seeded with 1.
void backward(const Value& root);

// Reverse topological order of the graph reachable from root (root first).
std::vector<Node*> topo_order(const Value& root);

}  // namespace grace::nn
