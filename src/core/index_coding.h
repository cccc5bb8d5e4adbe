// Lossless coding of sparse index lists. Sparsifiers ship 32-bit indices;
// since index lists are sorted, delta + variable-length coding cuts that
// substantially (the direction the paper's related work explores via
// Huffman coding [Gajjala et al.] and value/index compression
// [DeepReduce]). The scheme is Golomb-Rice with divisor 2^k over the
// deltas of the (strictly increasing) index list: near-optimal for the
// geometric gap distribution of uniformly-sparse indices, with k chosen
// from the mean gap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace grace::core {

// Golomb-Rice on deltas; k is stored in the payload. Auto-picks
// k = floor(log2(mean gap)) when k < 0. Indices must be non-negative and
// strictly increasing.
Tensor rice_encode_indices(std::span<const int32_t> indices, int k = -1);
std::vector<int32_t> rice_decode_indices(const Tensor& encoded, int64_t n);

}  // namespace grace::core
