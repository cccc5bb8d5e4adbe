#include "tensor/matmul.h"

#include <algorithm>
#include <cassert>

#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/simd.h"

namespace grace::ops {
namespace {

// Cache-blocking parameters. A (kKc x kNc) panel of B is ~512 KB — it stays
// resident in L2 while a block of A rows streams over it — and a kNc-wide
// slice of a C row (~2 KB) lives in L1 across the whole p loop. Larger
// panels also mean fewer parallel regions per call (one per panel), which
// keeps pool overhead negligible; measured best at 512^3 among
// {256,512} x {128,256,512}.
constexpr int64_t kNc = 512;  // columns of B/C per panel
constexpr int64_t kKc = 256;  // rows of B per panel
// Rows of A per parallel task. Chunk boundaries (and therefore the
// micro-kernel tiling inside each chunk) depend only on m, keeping results
// bitwise identical across thread counts.
constexpr int64_t kRowGrain = 32;

// Micro-kernel: C[i0..i0+4) x [jc..je) += alpha * A[i0..i0+4, pc..pe) *
// B[pc..pe, jc..je). Four C-row accumulators and a 4-step k unroll give the
// compiler a register tile: each quad of B vector loads feeds 16 FMAs, so C
// traffic drops 4x and B panel traffic 4x versus the row-at-a-time loop.
// The restrict qualifiers matter: without them the four C store streams
// might alias the B loads, and the vectorizer bails. No per-element
// branches — the old `if (av == 0.0f) continue;` zero-check defeated
// vectorization and paid a test per scalar; dense callers (all of ours:
// layers, conv, PowerSGD/Atomo/GradiVeq power iterations) never benefit
// from it. Sparse gradients in this codebase travel as (index, value)
// lists, not as dense zero-laden matrices, so no caller loses the skip.
inline void micro_4row(int64_t jc, int64_t je, int64_t pc, int64_t pe,
                       int64_t n, int64_t k, float alpha,
                       const float* __restrict__ a, const float* __restrict__ b,
                       float* __restrict__ c, int64_t i0) {
  const float* a0 = a + i0 * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  float* __restrict__ c0 = c + i0 * n;
  float* __restrict__ c1 = c0 + n;
  float* __restrict__ c2 = c1 + n;
  float* __restrict__ c3 = c2 + n;
  int64_t p = pc;
  for (; p + 4 <= pe; p += 4) {
    const float a00 = alpha * a0[p], a01 = alpha * a0[p + 1],
                a02 = alpha * a0[p + 2], a03 = alpha * a0[p + 3];
    const float a10 = alpha * a1[p], a11 = alpha * a1[p + 1],
                a12 = alpha * a1[p + 2], a13 = alpha * a1[p + 3];
    const float a20 = alpha * a2[p], a21 = alpha * a2[p + 1],
                a22 = alpha * a2[p + 2], a23 = alpha * a2[p + 3];
    const float a30 = alpha * a3[p], a31 = alpha * a3[p + 1],
                a32 = alpha * a3[p + 2], a33 = alpha * a3[p + 3];
    const float* __restrict__ b0 = b + p * n;
    const float* __restrict__ b1 = b0 + n;
    const float* __restrict__ b2 = b1 + n;
    const float* __restrict__ b3 = b2 + n;
    for (int64_t j = jc; j < je; ++j) {
      const float bv0 = b0[j];
      const float bv1 = b1[j];
      const float bv2 = b2[j];
      const float bv3 = b3[j];
      c0[j] += a00 * bv0 + a01 * bv1 + a02 * bv2 + a03 * bv3;
      c1[j] += a10 * bv0 + a11 * bv1 + a12 * bv2 + a13 * bv3;
      c2[j] += a20 * bv0 + a21 * bv1 + a22 * bv2 + a23 * bv3;
      c3[j] += a30 * bv0 + a31 * bv1 + a32 * bv2 + a33 * bv3;
    }
  }
  for (; p < pe; ++p) {
    const float av0 = alpha * a0[p];
    const float av1 = alpha * a1[p];
    const float av2 = alpha * a2[p];
    const float av3 = alpha * a3[p];
    const float* __restrict__ brow = b + p * n;
    for (int64_t j = jc; j < je; ++j) {
      c0[j] += av0 * brow[j];
      c1[j] += av1 * brow[j];
      c2[j] += av2 * brow[j];
      c3[j] += av3 * brow[j];
    }
  }
}

// Single-row remainder with the same 4-step k unroll (keeps the
// per-element accumulation order of the 4-row kernel's k loop).
inline void micro_1row(int64_t jc, int64_t je, int64_t pc, int64_t pe,
                       int64_t n, int64_t k, float alpha,
                       const float* __restrict__ a, const float* __restrict__ b,
                       float* __restrict__ c, int64_t i) {
  const float* arow = a + i * k;
  float* __restrict__ crow = c + i * n;
  int64_t p = pc;
  for (; p + 4 <= pe; p += 4) {
    const float av0 = alpha * arow[p];
    const float av1 = alpha * arow[p + 1];
    const float av2 = alpha * arow[p + 2];
    const float av3 = alpha * arow[p + 3];
    const float* __restrict__ b0 = b + p * n;
    const float* __restrict__ b1 = b0 + n;
    const float* __restrict__ b2 = b1 + n;
    const float* __restrict__ b3 = b2 + n;
    for (int64_t j = jc; j < je; ++j) {
      crow[j] += av0 * b0[j] + av1 * b1[j] + av2 * b2[j] + av3 * b3[j];
    }
  }
  for (; p < pe; ++p) {
    const float av = alpha * arow[p];
    const float* __restrict__ brow = b + p * n;
    for (int64_t j = jc; j < je; ++j) crow[j] += av * brow[j];
  }
}

// Blocked kernel: C(m x n) += alpha * A(m x k) * B(k x n), all row-major.
// The (pc, jc) panel walk is the serial outer loop — one kKc x kNc panel of
// B stays hot in L2 while every row block streams over it (panels per row
// chunk instead would reload each panel from L3 once per chunk, which
// costs ~2x at 512^3). The row loop inside a panel is the parallel axis;
// each C element still accumulates its pc panels in the same fixed order
// regardless of thread count.
void gemm_nn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
             const float* b, float* c) {
  for (int64_t pc = 0; pc < k; pc += kKc) {
    const int64_t pe = std::min(k, pc + kKc);
    for (int64_t jc = 0; jc < n; jc += kNc) {
      const int64_t je = std::min(n, jc + kNc);
      runtime::parallel_for(m, kRowGrain, [&](int64_t i0, int64_t i1) {
        int64_t i = i0;
        for (; i + 4 <= i1; i += 4) {
          micro_4row(jc, je, pc, pe, n, k, alpha, a, b, c, i);
        }
        for (; i < i1; ++i) {
          micro_1row(jc, je, pc, pe, n, k, alpha, a, b, c, i);
        }
      });
    }
  }
}

// The output positions o in [0, out) whose input position o * stride + off
// lies in [0, in), as the half-open range [lo, hi); lo == hi when none does.
struct ValidSpan {
  int64_t lo, hi;
};

ValidSpan valid_span(int64_t out, int64_t in, int64_t stride, int64_t off) {
  const int64_t lo = off >= 0 ? 0 : (stride - 1 - off) / stride;
  const int64_t hi = in - 1 - off < 0 ? 0 : (in - 1 - off) / stride + 1;
  const int64_t lo_c = std::min(lo, out);
  return {lo_c, std::clamp(hi, lo_c, out)};
}

// The lowering's row kernels take their geometry by value and test no
// element: each computes the span of output columns that read inside the
// image once per row, and copies or adds that span straight. A
// per-element bounds test inside a parallel_for body stays scalar (GCC 12
// would not vectorize the loads of the closure's captured sizes); DESIGN.md
// §7 has the measured cost.

// One im2col row: dst(oh x ow)[oi, oj] = plane(h x w)[oi*stride + di,
// oj*stride + dj], or 0 where that falls in the padding. One fill zeroes
// the whole row block first: cheaper than a fill per padding border.
void im2col_row(const float* __restrict__ plane, float* __restrict__ dst,
                int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t stride,
                int64_t di, int64_t dj) {
  const ValidSpan rows = valid_span(oh, h, stride, di);
  const ValidSpan span = valid_span(ow, w, stride, dj);
  std::fill(dst, dst + oh * ow, 0.0f);
  for (int64_t oi = rows.lo; oi < rows.hi; ++oi) {
    const float* src = plane + (oi * stride + di) * w;
    float* d = dst + oi * ow;
    if (stride == 1) {
      for (int64_t oj = span.lo; oj < span.hi; ++oj) d[oj] = src[oj + dj];
    } else {
      for (int64_t oj = span.lo; oj < span.hi; ++oj) d[oj] = src[oj * stride + dj];
    }
  }
}

// One col2im row, the adjoint of im2col_row: plane[oi*stride + di,
// oj*stride + dj] += src(oh x ow)[oi, oj] wherever that lies in the image.
// Each pixel receives at most one term per row.
void col2im_row(const float* __restrict__ src, float* __restrict__ plane,
                int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t stride,
                int64_t di, int64_t dj) {
  const ValidSpan rows = valid_span(oh, h, stride, di);
  const ValidSpan span = valid_span(ow, w, stride, dj);
  for (int64_t oi = rows.lo; oi < rows.hi; ++oi) {
    const float* s = src + oi * ow;
    float* d = plane + (oi * stride + di) * w;
    if (stride == 1) {
      for (int64_t oj = span.lo; oj < span.hi; ++oj) d[oj + dj] += s[oj];
    } else {
      for (int64_t oj = span.lo; oj < span.hi; ++oj) d[oj * stride + dj] += s[oj];
    }
  }
}

}  // namespace

void transpose(std::span<const float> in, int64_t m, int64_t n,
               std::span<float> out) {
  assert(static_cast<int64_t>(in.size()) >= m * n);
  assert(static_cast<int64_t>(out.size()) >= m * n);
  // Parallel over output rows: each task writes a disjoint row range of
  // `out`. The grain is a multiple of the kernel's 8-row tiles.
  float* o = out.data();
  const float* x = in.data();
  runtime::parallel_for(n, /*grain=*/64, [&](int64_t j0, int64_t j1) {
    util::simd::transpose_f32(x, m, n, o, j0, j1);
  });
}

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, std::span<const float> a, std::span<const float> b,
          float beta, std::span<float> c) {
  assert(static_cast<int64_t>(c.size()) >= m * n);
  if (beta == 0.0f) {
    fill(c.subspan(0, static_cast<size_t>(m * n)), 0.0f);
  } else if (beta != 1.0f) {
    scale(c.subspan(0, static_cast<size_t>(m * n)), beta);
  }
  // Materialize transposes once; the blocked kernel then always runs on
  // contiguous row-major operands. The transpose writes every element of
  // its buffer, so the buffer starts unwritten.
  Tensor abuf, bbuf;
  const float* ap = a.data();
  const float* bp = b.data();
  if (trans_a) {
    abuf = Tensor::for_overwrite(DType::F32, Shape{{m, k}});
    transpose(a, k, m, abuf.f32());
    ap = abuf.f32().data();
  }
  if (trans_b) {
    bbuf = Tensor::for_overwrite(DType::F32, Shape{{k, n}});
    transpose(b, n, k, bbuf.f32());
    bp = bbuf.f32().data();
  }
  gemm_nn(m, n, k, alpha, ap, bp, c.data());
}

void im2col(std::span<const float> img, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad,
            std::span<float> cols) {
  const int64_t oh = conv_out_dim(h, kh, stride, pad);
  const int64_t ow = conv_out_dim(w, kw, stride, pad);
  assert(static_cast<int64_t>(cols.size()) >= c * kh * kw * oh * ow);
  // Each output row (ch, ki, kj) owns a disjoint oh*ow block of `cols`.
  const float* src = img.data();
  float* out = cols.data();
  runtime::parallel_for(c * kh * kw, /*grain=*/1, [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      const int64_t ch = row / (kh * kw);
      const int64_t ki = (row / kw) % kh;
      const int64_t kj = row % kw;
      im2col_row(src + ch * h * w, out + row * oh * ow, h, w, oh, ow, stride,
                 ki - pad, kj - pad);
    }
  });
}

void col2im(std::span<const float> cols, int64_t c, int64_t h, int64_t w,
            int64_t kh, int64_t kw, int64_t stride, int64_t pad,
            std::span<float> img) {
  const int64_t oh = conv_out_dim(h, kh, stride, pad);
  const int64_t ow = conv_out_dim(w, kw, stride, pad);
  assert(static_cast<int64_t>(img.size()) >= c * h * w);
  // Rows of `cols` with different (ki, kj) scatter-add into overlapping
  // image pixels, so the parallel axis is the channel: each task owns whole
  // h*w planes and accumulates its kh*kw rows serially in the fixed
  // (ki, kj) order.
  const float* in = cols.data();
  float* out = img.data();
  runtime::parallel_for(c, /*grain=*/1, [&](int64_t c0, int64_t c1) {
    for (int64_t ch = c0; ch < c1; ++ch) {
      for (int64_t ki = 0; ki < kh; ++ki) {
        for (int64_t kj = 0; kj < kw; ++kj) {
          const int64_t row = (ch * kh + ki) * kw + kj;
          col2im_row(in + row * oh * ow, out + ch * h * w, h, w, oh, ow,
                     stride, ki - pad, kj - pad);
        }
      }
    }
  });
}

}  // namespace grace::ops
