#include "nn/conv_ops.h"

#include <cassert>
#include <limits>

#include "runtime/thread_pool.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"

namespace grace::nn {
namespace {

// One plane of maxpool2x2: dst(oh x ow)[i, j] is the largest input of the
// 2x2 window at (2i, 2j) of src (2oh x w), scanned (0,0), (0,1), (1,0),
// (1,1) with a strict > from -inf, and at[i, j] that input's plane
// offset. NaN never wins, and a window with nothing above -inf keeps -inf
// and offset 0. A plain function with its geometry by value and selects
// instead of branches, as DESIGN.md §7 asks of a parallel_for body.
void maxpool_plane(const float* __restrict__ src, float* __restrict__ dst,
                   int32_t* __restrict__ at, int64_t w, int64_t oh,
                   int64_t ow) {
  for (int64_t i = 0; i < oh; ++i) {
    const float* r0 = src + 2 * i * w;
    const float* r1 = r0 + w;
    const auto off0 = static_cast<int32_t>(2 * i * w);
    const auto off1 = static_cast<int32_t>(off0 + w);
    for (int64_t j = 0; j < ow; ++j) {
      float best = -std::numeric_limits<float>::infinity();
      int32_t best_at = 0;
      const auto take = [&](float v, int32_t off) {
        const bool win = v > best;
        best = win ? v : best;
        best_at = win ? off : best_at;
      };
      const auto col = static_cast<int32_t>(2 * j);
      take(r0[2 * j], off0 + col);
      take(r0[2 * j + 1], off0 + col + 1);
      take(r1[2 * j], off1 + col);
      take(r1[2 * j + 1], off1 + col + 1);
      dst[i * ow + j] = best;
      at[i * ow + j] = best_at;
    }
  }
}

}  // namespace

Value conv2d(const Value& x, const Value& weight, const Value& bias,
             int64_t stride, int64_t pad) {
  const auto& xs = x->data.shape();
  const auto& ws = weight->data.shape();
  assert(xs.rank() == 4 && ws.rank() == 4);
  const int64_t n = xs[0], c = xs[1], h = xs[2], w = xs[3];
  const int64_t oc = ws[0], kh = ws[2], kw = ws[3];
  assert(ws[1] == c);
  assert(bias->data.numel() == oc);
  const int64_t oh = ops::conv_out_dim(h, kh, stride, pad);
  const int64_t ow = ops::conv_out_dim(w, kw, stride, pad);
  const int64_t col_rows = c * kh * kw;
  const int64_t col_cols = oh * ow;

  // The GEMM (beta 0) writes every element of out, im2col every one of cols.
  Tensor out = Tensor::for_overwrite(DType::F32, Shape{{n, oc, oh, ow}});
  Tensor cols = Tensor::for_overwrite(DType::F32, Shape{{col_rows, col_cols}});
  auto xv = x->data.f32();
  auto wv = weight->data.f32();
  auto bv = bias->data.f32();
  auto ov = out.f32();
  for (int64_t i = 0; i < n; ++i) {
    ops::im2col(xv.subspan(static_cast<size_t>(i * c * h * w), static_cast<size_t>(c * h * w)),
                c, h, w, kh, kw, stride, pad, cols.f32());
    auto oi = ov.subspan(static_cast<size_t>(i * oc * col_cols), static_cast<size_t>(oc * col_cols));
    ops::gemm(false, false, oc, col_cols, col_rows, 1.0f, wv, cols.f32(), 0.0f, oi);
    for (int64_t ch = 0; ch < oc; ++ch) {
      const float b = bv[static_cast<size_t>(ch)];
      for (int64_t j = 0; j < col_cols; ++j) oi[static_cast<size_t>(ch * col_cols + j)] += b;
    }
  }

  return make_node(std::move(out), {x, weight, bias},
                   [n, c, h, w, oc, kh, kw, stride, pad, oh, ow](Node& nd) {
    const int64_t crows = c * kh * kw;
    const int64_t ccols = oh * ow;
    auto g = nd.grad.f32();
    auto& xn = *nd.parents[0];
    auto& wn = *nd.parents[1];
    auto& bn = *nd.parents[2];
    // No dX for an input that needs none (the data batch): that skips a
    // GEMM, a col2im and the dcols buffer per sample. W^T is the same for
    // every sample, so it is transposed once.
    const bool want_dx = xn.requires_grad;
    Tensor bcols = Tensor::for_overwrite(DType::F32, Shape{{crows, ccols}});
    Tensor dcols, wt;
    if (want_dx) {
      dcols = Tensor::for_overwrite(DType::F32, Shape{{crows, ccols}});
      wt = Tensor::for_overwrite(DType::F32, Shape{{crows, oc}});
      ops::transpose(wn.data.f32(), oc, crows, wt.f32());
    }
    for (int64_t i = 0; i < n; ++i) {
      auto gi = g.subspan(static_cast<size_t>(i * oc * ccols), static_cast<size_t>(oc * ccols));
      // dB: sum over spatial positions.
      auto gb = bn.grad.f32();
      for (int64_t ch = 0; ch < oc; ++ch) {
        double acc = 0.0;
        for (int64_t j = 0; j < ccols; ++j) acc += gi[static_cast<size_t>(ch * ccols + j)];
        gb[static_cast<size_t>(ch)] += static_cast<float>(acc);
      }
      // dW += gi * cols^T  (recompute cols to avoid caching them all).
      ops::im2col(xn.data.f32().subspan(static_cast<size_t>(i * c * h * w), static_cast<size_t>(c * h * w)),
                  c, h, w, kh, kw, stride, pad, bcols.f32());
      ops::gemm(false, true, oc, crows, ccols, 1.0f, gi, bcols.f32(), 1.0f,
                wn.grad.f32());
      if (want_dx) {
        // dX_i = col2im(W^T * gi)
        ops::gemm(false, false, crows, ccols, oc, 1.0f, wt.f32(), gi, 0.0f,
                  dcols.f32());
        ops::col2im(dcols.f32(), c, h, w, kh, kw, stride, pad,
                    xn.grad.f32().subspan(static_cast<size_t>(i * c * h * w), static_cast<size_t>(c * h * w)));
      }
    }
  });
}

Value maxpool2x2(const Value& x) {
  const auto& xs = x->data.shape();
  assert(xs.rank() == 4 && xs[2] % 2 == 0 && xs[3] % 2 == 0);
  const int64_t n = xs[0], c = xs[1], h = xs[2], w = xs[3];
  const int64_t oh = h / 2, ow = w / 2;
  // Every window writes its output and, for the backward pass, the plane
  // offset of the input that won it.
  Tensor out = Tensor::for_overwrite(DType::F32, Shape{{n, c, oh, ow}});
  Tensor argmaxes = Tensor::for_overwrite(DType::I32, Shape{{n, c, oh, ow}});
  const float* xv = x->data.f32().data();
  float* ov = out.f32().data();
  int32_t* av = argmaxes.i32().data();
  // Each (n, c) plane is independent: disjoint reads and writes.
  runtime::parallel_for(n * c, /*grain=*/1, [&](int64_t g0, int64_t g1) {
    for (int64_t img = g0; img < g1; ++img) {
      maxpool_plane(xv + img * h * w, ov + img * oh * ow, av + img * oh * ow,
                    w, oh, ow);
    }
  });
  return make_node(std::move(out), {x},
                   [n, c, h, w, oh, ow, argmaxes = std::move(argmaxes)](Node& nd) {
    auto g = nd.grad.f32();
    auto gx = nd.parents[0]->grad.f32();
    const auto at = argmaxes.i32();
    // argmaxes are plane-local offsets, so each plane scatters into its own
    // disjoint slice of gx.
    runtime::parallel_for(n * c, /*grain=*/1, [&](int64_t g0, int64_t g1) {
      for (int64_t img = g0; img < g1; ++img) {
        auto gdst = gx.subspan(static_cast<size_t>(img * h * w), static_cast<size_t>(h * w));
        const auto base = static_cast<size_t>(img * oh * ow);
        for (int64_t k = 0; k < oh * ow; ++k) {
          gdst[static_cast<size_t>(at[base + static_cast<size_t>(k)])] += g[base + static_cast<size_t>(k)];
        }
      }
    });
  });
}

Value upsample2x(const Value& x) {
  const auto& xs = x->data.shape();
  assert(xs.rank() == 4);
  const int64_t n = xs[0], c = xs[1], h = xs[2], w = xs[3];
  const int64_t oh = h * 2, ow = w * 2;
  Tensor out(DType::F32, Shape{{n, c, oh, ow}});
  auto xv = x->data.f32();
  auto ov = out.f32();
  runtime::parallel_for(n * c, /*grain=*/1, [&](int64_t g0, int64_t g1) {
    for (int64_t img = g0; img < g1; ++img) {
      const auto src = xv.subspan(static_cast<size_t>(img * h * w), static_cast<size_t>(h * w));
      auto dst = ov.subspan(static_cast<size_t>(img * oh * ow), static_cast<size_t>(oh * ow));
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          dst[static_cast<size_t>(i * ow + j)] = src[static_cast<size_t>((i / 2) * w + j / 2)];
        }
      }
    }
  });
  return make_node(std::move(out), {x}, [n, c, h, w, oh, ow](Node& nd) {
    auto g = nd.grad.f32();
    auto gx = nd.parents[0]->grad.f32();
    runtime::parallel_for(n * c, /*grain=*/1, [&](int64_t g0, int64_t g1) {
      for (int64_t img = g0; img < g1; ++img) {
        auto gsrc = gx.subspan(static_cast<size_t>(img * h * w), static_cast<size_t>(h * w));
        const auto gdst = g.subspan(static_cast<size_t>(img * oh * ow), static_cast<size_t>(oh * ow));
        for (int64_t i = 0; i < oh; ++i) {
          for (int64_t j = 0; j < ow; ++j) {
            gsrc[static_cast<size_t>((i / 2) * w + j / 2)] += gdst[static_cast<size_t>(i * ow + j)];
          }
        }
      }
    });
  });
}

Value concat_channels(const Value& a, const Value& b) {
  const auto& as = a->data.shape();
  const auto& bs = b->data.shape();
  assert(as.rank() == 4 && bs.rank() == 4);
  const int64_t n = as[0], c1 = as[1], h = as[2], w = as[3];
  const int64_t c2 = bs[1];
  assert(bs[0] == n && bs[2] == h && bs[3] == w);
  const int64_t plane = h * w;
  Tensor out(DType::F32, Shape{{n, c1 + c2, h, w}});
  auto av = a->data.f32();
  auto bv = b->data.f32();
  auto ov = out.f32();
  for (int64_t i = 0; i < n; ++i) {
    std::copy_n(av.begin() + i * c1 * plane, c1 * plane,
                ov.begin() + i * (c1 + c2) * plane);
    std::copy_n(bv.begin() + i * c2 * plane, c2 * plane,
                ov.begin() + (i * (c1 + c2) + c1) * plane);
  }
  return make_node(std::move(out), {a, b}, [n, c1, c2, plane](Node& nd) {
    auto g = nd.grad.f32();
    auto ga = nd.parents[0]->grad.f32();
    auto gb = nd.parents[1]->grad.f32();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t k = 0; k < c1 * plane; ++k) {
        ga[static_cast<size_t>(i * c1 * plane + k)] += g[static_cast<size_t>(i * (c1 + c2) * plane + k)];
      }
      for (int64_t k = 0; k < c2 * plane; ++k) {
        gb[static_cast<size_t>(i * c2 * plane + k)] += g[static_cast<size_t>((i * (c1 + c2) + c1) * plane + k)];
      }
    }
  });
}

}  // namespace grace::nn
