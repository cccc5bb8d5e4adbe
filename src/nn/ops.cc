#include "nn/ops.h"

#include <cassert>
#include <cmath>

#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace grace::nn {

Value add(const Value& a, const Value& b) {
  assert(a->data.shape() == b->data.shape());
  Tensor out = a->data;
  ops::add(out.f32(), b->data.f32());
  return make_node(std::move(out), {a, b}, [](Node& n) {
    ops::add(n.parents[0]->grad.f32(), n.grad.f32());
    ops::add(n.parents[1]->grad.f32(), n.grad.f32());
  });
}

Value sub(const Value& a, const Value& b) {
  assert(a->data.shape() == b->data.shape());
  Tensor out = a->data;
  ops::sub(out.f32(), b->data.f32());
  return make_node(std::move(out), {a, b}, [](Node& n) {
    ops::add(n.parents[0]->grad.f32(), n.grad.f32());
    ops::axpy(n.parents[1]->grad.f32(), -1.0f, n.grad.f32());
  });
}

Value hadamard(const Value& a, const Value& b) {
  assert(a->data.shape() == b->data.shape());
  Tensor out = a->data;
  ops::hadamard(out.f32(), b->data.f32());
  return make_node(std::move(out), {a, b}, [](Node& n) {
    auto g = n.grad.f32();
    auto ga = n.parents[0]->grad.f32();
    auto gb = n.parents[1]->grad.f32();
    auto da = n.parents[0]->data.f32();
    auto db = n.parents[1]->data.f32();
    for (size_t i = 0; i < g.size(); ++i) {
      ga[i] += g[i] * db[i];
      gb[i] += g[i] * da[i];
    }
  });
}

Value scale(const Value& a, float s) {
  Tensor out = a->data;
  ops::scale(out.f32(), s);
  return make_node(std::move(out), {a}, [s](Node& n) {
    ops::axpy(n.parents[0]->grad.f32(), s, n.grad.f32());
  });
}

Value add_bias(const Value& x, const Value& bias) {
  assert(x->data.shape().rank() == 2 && bias->data.shape().rank() == 1);
  const int64_t m = x->data.shape()[0];
  const int64_t d = x->data.shape()[1];
  assert(bias->data.shape()[0] == d);
  Tensor out = x->data;
  auto o = out.f32();
  auto b = bias->data.f32();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < d; ++j) o[static_cast<size_t>(i * d + j)] += b[static_cast<size_t>(j)];
  }
  return make_node(std::move(out), {x, bias}, [m, d](Node& n) {
    ops::add(n.parents[0]->grad.f32(), n.grad.f32());
    auto gb = n.parents[1]->grad.f32();
    auto g = n.grad.f32();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < d; ++j) gb[static_cast<size_t>(j)] += g[static_cast<size_t>(i * d + j)];
    }
  });
}

Value matmul(const Value& a, const Value& b) {
  assert(a->data.shape().rank() == 2 && b->data.shape().rank() == 2);
  const int64_t m = a->data.shape()[0];
  const int64_t k = a->data.shape()[1];
  const int64_t n2 = b->data.shape()[1];
  assert(b->data.shape()[0] == k);
  // The GEMM (beta 0) writes every element of out.
  Tensor out = Tensor::for_overwrite(DType::F32, Shape{{m, n2}});
  ops::gemm(false, false, m, n2, k, 1.0f, a->data.f32(), b->data.f32(), 0.0f,
            out.f32());
  return make_node(std::move(out), {a, b}, [m, k, n2](Node& n) {
    // dA = dC * B^T (skipped when A needs no gradient) ; dB = A^T * dC
    if (n.parents[0]->requires_grad) {
      ops::gemm(false, true, m, k, n2, 1.0f, n.grad.f32(), n.parents[1]->data.f32(),
                1.0f, n.parents[0]->grad.f32());
    }
    ops::gemm(true, false, k, n2, m, 1.0f, n.parents[0]->data.f32(), n.grad.f32(),
              1.0f, n.parents[1]->grad.f32());
  });
}

Value relu(const Value& a) {
  Tensor out = Tensor::for_overwrite(DType::F32, a->data.shape());
  const auto src = a->data.f32();
  const auto dst = out.f32();
  for (size_t i = 0; i < dst.size(); ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
  return make_node(std::move(out), {a}, [](Node& n) {
    auto g = n.grad.f32();
    auto ga = n.parents[0]->grad.f32();
    auto da = n.parents[0]->data.f32();
    for (size_t i = 0; i < g.size(); ++i) {
      if (da[i] > 0.0f) ga[i] += g[i];
    }
  });
}

Value sigmoid(const Value& a) {
  Tensor out = a->data;
  for (auto& v : out.f32()) v = 1.0f / (1.0f + std::exp(-v));
  return make_node(std::move(out), {a}, [](Node& n) {
    auto g = n.grad.f32();
    auto ga = n.parents[0]->grad.f32();
    auto y = n.data.f32();
    for (size_t i = 0; i < g.size(); ++i) ga[i] += g[i] * y[i] * (1.0f - y[i]);
  });
}

Value tanh_op(const Value& a) {
  Tensor out = a->data;
  for (auto& v : out.f32()) v = std::tanh(v);
  return make_node(std::move(out), {a}, [](Node& n) {
    auto g = n.grad.f32();
    auto ga = n.parents[0]->grad.f32();
    auto y = n.data.f32();
    for (size_t i = 0; i < g.size(); ++i) ga[i] += g[i] * (1.0f - y[i] * y[i]);
  });
}

Value reshape(const Value& a, Shape shape) {
  assert(shape.numel() == a->data.numel());
  Tensor out = a->data.reshaped(std::move(shape));
  return make_node(std::move(out), {a}, [](Node& n) {
    ops::add(n.parents[0]->grad.f32(), n.grad.f32());
  });
}

Value slice_cols(const Value& a, int64_t start, int64_t len) {
  assert(a->data.shape().rank() == 2);
  const int64_t m = a->data.shape()[0];
  const int64_t n0 = a->data.shape()[1];
  assert(start >= 0 && start + len <= n0);
  Tensor out(DType::F32, Shape{{m, len}});
  auto src = a->data.f32();
  auto dst = out.f32();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < len; ++j) {
      dst[static_cast<size_t>(i * len + j)] = src[static_cast<size_t>(i * n0 + start + j)];
    }
  }
  return make_node(std::move(out), {a}, [m, n0, start, len](Node& n) {
    auto g = n.grad.f32();
    auto ga = n.parents[0]->grad.f32();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < len; ++j) {
        ga[static_cast<size_t>(i * n0 + start + j)] += g[static_cast<size_t>(i * len + j)];
      }
    }
  });
}

Value concat_cols(const Value& a, const Value& b) {
  assert(a->data.shape().rank() == 2 && b->data.shape().rank() == 2);
  const int64_t m = a->data.shape()[0];
  const int64_t n1 = a->data.shape()[1];
  const int64_t n2 = b->data.shape()[1];
  assert(b->data.shape()[0] == m);
  Tensor out(DType::F32, Shape{{m, n1 + n2}});
  auto o = out.f32();
  auto da = a->data.f32();
  auto db = b->data.f32();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n1; ++j) o[static_cast<size_t>(i * (n1 + n2) + j)] = da[static_cast<size_t>(i * n1 + j)];
    for (int64_t j = 0; j < n2; ++j) o[static_cast<size_t>(i * (n1 + n2) + n1 + j)] = db[static_cast<size_t>(i * n2 + j)];
  }
  return make_node(std::move(out), {a, b}, [m, n1, n2](Node& n) {
    auto g = n.grad.f32();
    auto ga = n.parents[0]->grad.f32();
    auto gb = n.parents[1]->grad.f32();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n1; ++j) ga[static_cast<size_t>(i * n1 + j)] += g[static_cast<size_t>(i * (n1 + n2) + j)];
      for (int64_t j = 0; j < n2; ++j) gb[static_cast<size_t>(i * n2 + j)] += g[static_cast<size_t>(i * (n1 + n2) + n1 + j)];
    }
  });
}

Value sum_all(const Value& a) {
  Tensor out = Tensor::scalar(ops::sum(a->data.f32()));
  return make_node(std::move(out), {a}, [](Node& n) {
    const float g = n.grad.f32()[0];
    for (auto& v : n.parents[0]->grad.f32()) v += g;
  });
}

Value mean_all(const Value& a) {
  const auto inv = 1.0f / static_cast<float>(a->data.numel());
  Tensor out = Tensor::scalar(ops::sum(a->data.f32()) * inv);
  return make_node(std::move(out), {a}, [inv](Node& n) {
    const float g = n.grad.f32()[0] * inv;
    for (auto& v : n.parents[0]->grad.f32()) v += g;
  });
}

Value embedding(const Value& table, std::vector<int32_t> ids) {
  assert(table->data.shape().rank() == 2);
  const int64_t dim = table->data.shape()[1];
  const auto n_ids = static_cast<int64_t>(ids.size());
  Tensor out(DType::F32, Shape{{n_ids, dim}});
  auto t = table->data.f32();
  auto o = out.f32();
  for (int64_t i = 0; i < n_ids; ++i) {
    const int64_t row = ids[static_cast<size_t>(i)];
    assert(row >= 0 && row < table->data.shape()[0]);
    for (int64_t j = 0; j < dim; ++j) o[static_cast<size_t>(i * dim + j)] = t[static_cast<size_t>(row * dim + j)];
  }
  return make_node(std::move(out), {table},
                   [dim, ids = std::move(ids)](Node& n) {
    auto g = n.grad.f32();
    auto gt = n.parents[0]->grad.f32();
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto row = static_cast<int64_t>(ids[i]);
      for (int64_t j = 0; j < dim; ++j) {
        gt[static_cast<size_t>(row * dim + j)] += g[i * static_cast<size_t>(dim) + static_cast<size_t>(j)];
      }
    }
  });
}

Value softmax_cross_entropy(const Value& logits, std::vector<int32_t> labels) {
  assert(logits->data.shape().rank() == 2);
  const int64_t m = logits->data.shape()[0];
  const int64_t c = logits->data.shape()[1];
  assert(static_cast<int64_t>(labels.size()) == m);
  // Cache the softmax for the backward pass.
  Tensor probs(DType::F32, Shape{{m, c}});
  auto z = logits->data.f32();
  auto p = probs.f32();
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    const auto row = z.subspan(static_cast<size_t>(i * c), static_cast<size_t>(c));
    const float mx = ops::max(row);
    double denom = 0.0;
    for (int64_t j = 0; j < c; ++j) denom += std::exp(static_cast<double>(row[static_cast<size_t>(j)] - mx));
    for (int64_t j = 0; j < c; ++j) {
      p[static_cast<size_t>(i * c + j)] = static_cast<float>(
          std::exp(static_cast<double>(row[static_cast<size_t>(j)] - mx)) / denom);
    }
    const float pl = p[static_cast<size_t>(i * c + labels[static_cast<size_t>(i)])];
    loss -= std::log(std::max(1e-12, static_cast<double>(pl)));
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / static_cast<double>(m)));
  return make_node(std::move(out), {logits},
                   [m, c, probs = std::move(probs),
                    labels = std::move(labels)](Node& n) {
    const float g = n.grad.f32()[0] / static_cast<float>(m);
    auto gl = n.parents[0]->grad.f32();
    auto pb = probs.f32();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < c; ++j) {
        const float y = j == labels[static_cast<size_t>(i)] ? 1.0f : 0.0f;
        gl[static_cast<size_t>(i * c + j)] += g * (pb[static_cast<size_t>(i * c + j)] - y);
      }
    }
  });
}

Value bce_with_logits(const Value& logits, Tensor targets) {
  assert(logits->data.shape() == targets.shape());
  const int64_t n = logits->data.numel();
  auto z = logits->data.f32();
  auto t = targets.f32();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    // Numerically stable: max(z,0) - z*t + log(1 + exp(-|z|))
    const double zi = z[static_cast<size_t>(i)];
    loss += std::max(zi, 0.0) - zi * t[static_cast<size_t>(i)] +
            std::log1p(std::exp(-std::fabs(zi)));
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / static_cast<double>(n)));
  return make_node(std::move(out), {logits},
                   [n, targets = std::move(targets)](Node& nd) {
    const float g = nd.grad.f32()[0] / static_cast<float>(n);
    auto gl = nd.parents[0]->grad.f32();
    auto zb = nd.parents[0]->data.f32();
    auto tb = targets.f32();
    for (int64_t i = 0; i < n; ++i) {
      const float s = 1.0f / (1.0f + std::exp(-zb[static_cast<size_t>(i)]));
      gl[static_cast<size_t>(i)] += g * (s - tb[static_cast<size_t>(i)]);
    }
  });
}

Value mse_loss(const Value& pred, Tensor target) {
  assert(pred->data.shape() == target.shape());
  const int64_t n = pred->data.numel();
  auto p = pred->data.f32();
  auto t = target.f32();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[static_cast<size_t>(i)]) - t[static_cast<size_t>(i)];
    loss += d * d;
  }
  Tensor out = Tensor::scalar(static_cast<float>(loss / static_cast<double>(n)));
  return make_node(std::move(out), {pred},
                   [n, target = std::move(target)](Node& nd) {
    const float g = 2.0f * nd.grad.f32()[0] / static_cast<float>(n);
    auto gp = nd.parents[0]->grad.f32();
    auto pb = nd.parents[0]->data.f32();
    auto tb = target.f32();
    for (int64_t i = 0; i < n; ++i) {
      gp[static_cast<size_t>(i)] += g * (pb[static_cast<size_t>(i)] - tb[static_cast<size_t>(i)]);
    }
  });
}

}  // namespace grace::nn
