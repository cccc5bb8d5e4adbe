// A small tape-based reverse-mode autograd engine over dense tensors.
//
// Each forward op builds a Node holding its output tensor, links to its
// parent nodes, and a closure that propagates the node's gradient into the
// parents' gradients. backward() runs the closures in reverse topological
// order. Leaves (model parameters) persist across iterations and accumulate
// gradients until zero_grad().
//
// A NoGrad guard turns the tape off on its thread: forward-only code
// (evaluation) then gets plain values, with no gradient buffers and no
// retained graph.
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
  // Same shape as data, zero-initialized. Empty for a node built under a
  // NoGrad guard; parameters always have one.
  Tensor grad;
  std::vector<Value> parents;
  // Propagates this->grad into parents' grad tensors. Null for leaves and
  // for nodes built under a NoGrad guard.
  std::function<void(Node&)> backward_fn;
  // False for a leaf whose gradient nobody reads: a data batch, an LSTM's
  // zero state. Backward need not write such a node's grad, and conv2d
  // (its dX) and matmul (its dA) skip it, so it stays all zero. Parameters
  // and op outputs keep true; nodes built under a NoGrad guard get false.
  bool requires_grad = true;

  explicit Node(Tensor d) : data(std::move(d)) {}
};

// While a NoGrad is alive on a thread, the nodes that thread builds get no
// gradient, no parents and no backward closure, so the graph behind an
// op's output is freed as soon as nothing else holds it. Op outputs are
// bitwise the same as on the tape. Guards nest; each restores the state it
// found. The flag is per thread: a guard on one thread leaves every other
// thread's tape on. Module::register_parameter gives a parameter its
// gradient under a guard too.
class NoGrad {
 public:
  NoGrad();
  ~NoGrad();
  NoGrad(const NoGrad&) = delete;
  NoGrad& operator=(const NoGrad&) = delete;

 private:
  bool was_off_;
};

// Wrap a tensor as a leaf: no parents, no backward_fn. Outside a NoGrad
// guard it gets a zeroed gradient.
Value make_value(Tensor data, bool requires_grad = true);

// An op's output node: `parents` and `backward_fn` are kept, and a zeroed
// gradient allocated, only outside a NoGrad guard.
Value make_node(Tensor data, std::vector<Value> parents,
                std::function<void(Node&)> backward_fn);

// Run reverse-mode accumulation from a scalar root; the root's gradient is
// seeded with 1. Throws std::invalid_argument for a null or non-scalar
// root, and std::logic_error when the root or any node it reaches was built
// under a NoGrad guard (there is no gradient to seed or accumulate into);
// both before any gradient is written.
void backward(const Value& root);

// Reverse topological order of the graph reachable from root (root first).
std::vector<Node*> topo_order(const Value& root);

}  // namespace grace::nn
