#include "nn/value.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace grace::nn {
namespace {

// True while a NoGrad guard is alive on this thread.
thread_local bool tape_off = false;

}  // namespace

NoGrad::NoGrad() : was_off_(tape_off) { tape_off = true; }

NoGrad::~NoGrad() { tape_off = was_off_; }

Value make_value(Tensor data, bool requires_grad) {
  auto n = std::make_shared<Node>(std::move(data));
  n->requires_grad = requires_grad && !tape_off;
  if (!tape_off) n->grad = Tensor::zeros_like(n->data);
  return n;
}

Value make_node(Tensor data, std::vector<Value> parents,
                std::function<void(Node&)> backward_fn) {
  auto n = make_value(std::move(data));
  if (!tape_off) {
    n->parents = std::move(parents);
    n->backward_fn = std::move(backward_fn);
  }
  return n;
}

std::vector<Node*> topo_order(const Value& root) {
  // Iterative post-order DFS; post-order reversed gives the propagation order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (root) {
    stack.push_back({root.get(), 0});
    visited.insert(root.get());
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (visited.insert(p).second) stack.push_back({p, 0});
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

void backward(const Value& root) {
  if (!root || root->data.numel() != 1) {
    throw std::invalid_argument("nn::backward: the root must be a scalar");
  }
  const std::vector<Node*> order = topo_order(root);
  for (const Node* n : order) {
    if (n->grad.size_bytes() != n->data.size_bytes()) {
      throw std::logic_error(
          "nn::backward: the graph holds a node built under NoGrad, which "
          "has no gradient");
    }
  }
  root->grad.f32()[0] = 1.0f;
  for (Node* n : order) {
    if (n->backward_fn) n->backward_fn(*n);
  }
}

}  // namespace grace::nn
