// GEMM, transpose, im2col/col2im.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/matmul.h"
#include "tensor/rng.h"

namespace grace {
namespace {

TEST(Matmul, Basic2x2) {
  const std::vector<float> a{1, 2, 3, 4};  // [[1,2],[3,4]]
  const std::vector<float> b{5, 6, 7, 8};  // [[5,6],[7,8]]
  std::vector<float> c(4);
  ops::gemm(false, false, 2, 2, 2, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(c, (std::vector<float>{19, 22, 43, 50}));
}

TEST(Matmul, Rectangular) {
  const std::vector<float> a{1, 2, 3, 4, 5, 6};  // 2x3
  const std::vector<float> b{1, 0, 0, 1, 1, 1};  // 3x2
  std::vector<float> c(4);
  ops::gemm(false, false, 2, 2, 3, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(c, (std::vector<float>{4, 5, 10, 11}));
}

TEST(Matmul, AlphaBeta) {
  const std::vector<float> a{1, 0, 0, 1};
  const std::vector<float> b{2, 3, 4, 5};
  std::vector<float> c{1, 1, 1, 1};
  ops::gemm(false, false, 2, 2, 2, 2.0f, a, b, 1.0f, c);
  EXPECT_EQ(c, (std::vector<float>{5, 7, 9, 11}));
}

TEST(Matmul, Transpose) {
  const std::vector<float> in{1, 2, 3, 4, 5, 6};  // 2x3
  std::vector<float> out(6);
  ops::transpose(in, 2, 3, out);
  EXPECT_EQ(out, (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

// A plain transpose loop: out(n x m) = in(m x n)^T.
std::vector<float> reference_transpose(const std::vector<float>& in, int64_t m,
                                       int64_t n) {
  std::vector<float> out(in.size());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out[static_cast<size_t>(j * m + i)] = in[static_cast<size_t>(i * n + j)];
    }
  }
  return out;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// (m, n, k) of small cases and of cnn-small's transposed GEMMs, where m and
// n are not multiples of 8: conv1's and conv2's dW (A * cols^T), conv2's
// dX (W^T * G), the classifier's dA (G * W^T) and dW (X^T * G).
constexpr std::array<std::array<int64_t, 3>, 7> kTransShapes{{
    {4, 3, 5}, {3, 5, 4}, {16, 27, 256}, {32, 144, 64}, {144, 64, 32},
    {8, 512, 10}, {512, 10, 8}}};

TEST(Matmul, TransAFlagMatchesExplicitTranspose) {
  Rng rng(1);
  for (const auto& [m, n, k] : kTransShapes) {
    SCOPED_TRACE(::testing::Message() << m << "x" << n << "x" << k);
    std::vector<float> at(static_cast<size_t>(k * m)), b(static_cast<size_t>(k * n));
    rng.fill_normal(at, 0.0f, 1.0f);
    rng.fill_normal(b, 0.0f, 1.0f);
    const std::vector<float> a = reference_transpose(at, k, m);
    std::vector<float> c1(static_cast<size_t>(m * n)), c2(static_cast<size_t>(m * n));
    ops::gemm(true, false, m, n, k, 1.0f, at, b, 0.0f, c1);
    ops::gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c2);
    EXPECT_TRUE(bitwise_equal(c1, c2));
  }
}

TEST(Matmul, TransBFlagMatchesExplicitTranspose) {
  Rng rng(2);
  for (const auto& [m, n, k] : kTransShapes) {
    SCOPED_TRACE(::testing::Message() << m << "x" << n << "x" << k);
    std::vector<float> a(static_cast<size_t>(m * k)), bt(static_cast<size_t>(n * k));
    rng.fill_normal(a, 0.0f, 1.0f);
    rng.fill_normal(bt, 0.0f, 1.0f);
    const std::vector<float> b = reference_transpose(bt, n, k);
    std::vector<float> c1(static_cast<size_t>(m * n)), c2(static_cast<size_t>(m * n));
    ops::gemm(false, true, m, n, k, 1.0f, a, bt, 0.0f, c1);
    ops::gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c2);
    EXPECT_TRUE(bitwise_equal(c1, c2));
  }
}

// ops::transpose splits the output rows over the pool in 64-row chunks.
void check_transpose_matches_reference() {
  Rng rng(3);
  for (const auto& [m, n] : {std::pair<int64_t, int64_t>{27, 256}, {144, 64},
                             {33, 200}, {256, 27}}) {
    std::vector<float> in(static_cast<size_t>(m * n));
    rng.fill_normal(in, 0.0f, 1.0f);
    std::vector<float> out(in.size());
    ops::transpose(in, m, n, out);
    EXPECT_TRUE(bitwise_equal(out, reference_transpose(in, m, n))) << m << "x" << n;
  }
}

TEST(Matmul, TransposeMatchesTheLoopOnOneLane) {
  const runtime::LaneLimit one(1);
  check_transpose_matches_reference();
}

TEST(Matmul, TransposeMatchesTheLoopOnThePool) {
  check_transpose_matches_reference();
}

TEST(Conv, OutDim) {
  EXPECT_EQ(ops::conv_out_dim(16, 3, 1, 1), 16);
  EXPECT_EQ(ops::conv_out_dim(16, 3, 1, 0), 14);
  EXPECT_EQ(ops::conv_out_dim(16, 2, 2, 0), 8);
}

TEST(Conv, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no pad: im2col is the identity layout.
  const std::vector<float> img{1, 2, 3, 4};
  std::vector<float> cols(4);
  ops::im2col(img, 1, 2, 2, 1, 1, 1, 0, cols);
  EXPECT_EQ(cols, img);
}

TEST(Conv, Im2ColPadding) {
  // 3x3 kernel centered at (0,0) with pad 1: top-left element of the patch
  // is out of bounds -> 0.
  const std::vector<float> img{1, 2, 3, 4};
  std::vector<float> cols(9 * 4);
  ops::im2col(img, 1, 2, 2, 3, 3, 1, 1, cols);
  // Row 0 = kernel offset (0,0): value at (i-1, j-1).
  EXPECT_EQ(cols[0], 0.0f);   // (-1,-1)
  EXPECT_EQ(cols[3], 1.0f);   // output (1,1) reads img(0,0)
  // Row 4 = kernel center: exactly the image.
  EXPECT_EQ(cols[4 * 4 + 0], 1.0f);
  EXPECT_EQ(cols[4 * 4 + 3], 4.0f);
}

TEST(Conv, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property the conv backward pass relies on.
  Rng rng(7);
  const int64_t c = 2, h = 5, w = 4, kh = 3, kw = 3, stride = 1, pad = 1;
  const int64_t oh = ops::conv_out_dim(h, kh, stride, pad);
  const int64_t ow = ops::conv_out_dim(w, kw, stride, pad);
  const size_t img_n = static_cast<size_t>(c * h * w);
  const size_t col_n = static_cast<size_t>(c * kh * kw * oh * ow);
  std::vector<float> x(img_n), y(col_n), cols(col_n), img(img_n, 0.0f);
  rng.fill_normal(x, 0.0f, 1.0f);
  rng.fill_normal(y, 0.0f, 1.0f);
  ops::im2col(x, c, h, w, kh, kw, stride, pad, cols);
  ops::col2im(y, c, h, w, kh, kw, stride, pad, img);
  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < col_n; ++i) lhs += static_cast<double>(cols[i]) * y[i];
  for (size_t i = 0; i < img_n; ++i) rhs += static_cast<double>(x[i]) * img[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// The per-element loops ops::im2col and ops::col2im ran before they split
// each row into padding and a valid span: the reference their output must
// match bit for bit.
void im2col_reference(const std::vector<float>& img, int64_t c, int64_t h,
                      int64_t w, int64_t kh, int64_t kw, int64_t stride,
                      int64_t pad, std::vector<float>& cols) {
  const int64_t oh = ops::conv_out_dim(h, kh, stride, pad);
  const int64_t ow = ops::conv_out_dim(w, kw, stride, pad);
  for (int64_t row = 0; row < c * kh * kw; ++row) {
    const int64_t ch = row / (kh * kw);
    const int64_t ki = (row / kw) % kh;
    const int64_t kj = row % kw;
    for (int64_t oi = 0; oi < oh; ++oi) {
      const int64_t ii = oi * stride + ki - pad;
      for (int64_t oj = 0; oj < ow; ++oj) {
        const int64_t jj = oj * stride + kj - pad;
        const bool in_bounds = ii >= 0 && ii < h && jj >= 0 && jj < w;
        cols[static_cast<size_t>((row * oh + oi) * ow + oj)] =
            in_bounds ? img[static_cast<size_t>((ch * h + ii) * w + jj)] : 0.0f;
      }
    }
  }
}

void col2im_reference(const std::vector<float>& cols, int64_t c, int64_t h,
                      int64_t w, int64_t kh, int64_t kw, int64_t stride,
                      int64_t pad, std::vector<float>& img) {
  const int64_t oh = ops::conv_out_dim(h, kh, stride, pad);
  const int64_t ow = ops::conv_out_dim(w, kw, stride, pad);
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        const int64_t row = (ch * kh + ki) * kw + kj;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * stride + ki - pad;
          if (ii < 0 || ii >= h) continue;
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * stride + kj - pad;
            if (jj < 0 || jj >= w) continue;
            img[static_cast<size_t>((ch * h + ii) * w + jj)] +=
                cols[static_cast<size_t>((row * oh + oi) * ow + oj)];
          }
        }
      }
    }
  }
}

// Strides {1, 2, 3} x pads {0, 1, 2} x kernels {1x1, 3x3, 2x3} over images
// down to 1x2 and 2x1, smaller than the kernel: all-padding rows, rows whose
// valid span is empty, and spans that start or end inside the padding.
// Every output element is first set to NaN, so one the lowering skips
// fails the bitwise compare; a trailing guard catches a write past the end.
void check_lowering_matches_reference() {
  constexpr float kGuard = -7.0f;
  Rng rng(11);
  int64_t cases = 0;
  for (const int64_t stride : {1, 2, 3}) {
    for (const int64_t pad : {0, 1, 2}) {
      for (const auto& [kh, kw] : {std::pair<int64_t, int64_t>{1, 1}, {3, 3}, {2, 3}}) {
        for (const auto& [h, w] : {std::pair<int64_t, int64_t>{1, 2}, {2, 1}, {5, 4}, {7, 9}}) {
          if (h + 2 * pad < kh || w + 2 * pad < kw) continue;  // no output
          const int64_t c = 3;
          const int64_t oh = ops::conv_out_dim(h, kh, stride, pad);
          const int64_t ow = ops::conv_out_dim(w, kw, stride, pad);
          const auto img_n = static_cast<size_t>(c * h * w);
          const auto col_n = static_cast<size_t>(c * kh * kw * oh * ow);
          SCOPED_TRACE(::testing::Message() << "stride " << stride << " pad " << pad
                                            << " kernel " << kh << "x" << kw
                                            << " image " << h << "x" << w);
          std::vector<float> img(img_n);
          rng.fill_normal(img, 0.0f, 1.0f);
          std::vector<float> want(col_n), got(col_n + 1, std::nanf(""));
          got[col_n] = kGuard;
          im2col_reference(img, c, h, w, kh, kw, stride, pad, want);
          ops::im2col(img, c, h, w, kh, kw, stride, pad, got);
          EXPECT_EQ(got[col_n], kGuard);
          got.pop_back();
          EXPECT_TRUE(bitwise_equal(got, want));

          // col2im accumulates into an image that already holds a sum.
          std::vector<float> cols(col_n), base(img_n);
          rng.fill_normal(cols, 0.0f, 1.0f);
          rng.fill_normal(base, 0.0f, 1.0f);
          std::vector<float> want_img = base, got_img = base;
          got_img.push_back(kGuard);
          col2im_reference(cols, c, h, w, kh, kw, stride, pad, want_img);
          ops::col2im(cols, c, h, w, kh, kw, stride, pad, got_img);
          EXPECT_EQ(got_img.back(), kGuard);
          got_img.pop_back();
          EXPECT_TRUE(bitwise_equal(got_img, want_img));
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 96);
}

TEST(Conv, LoweringMatchesReferenceLoopsOnOneLane) {
  const runtime::LaneLimit one(1);
  check_lowering_matches_reference();
}

TEST(Conv, LoweringMatchesReferenceLoopsOnThePool) {
  check_lowering_matches_reference();
}

}  // namespace
}  // namespace grace
