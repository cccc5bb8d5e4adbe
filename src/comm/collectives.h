// Collective operations over a Comm handle. These are really executed by
// concurrent worker threads — every rank must call the same collective with
// the same tag. Semantics mirror Horovod's Allreduce / Allgather.
#pragma once

#include <span>
#include <vector>

#include "comm/world.h"

namespace grace::comm {

// In-place sum across all ranks (ring reduce-scatter + ring allgather).
// Every rank ends with the element-wise sum. Deterministic: the chunk sum
// order depends only on ring topology, not thread scheduling.
void allreduce_sum(Comm& comm, std::span<float> data, int tag = 0);

// Gathers one tensor per rank, returned in rank order. Tensors may have
// different shapes/dtypes on different ranks (needed for sparsifiers whose
// selected size differs per worker). `mine` is taken by value: a caller
// that moves it in (a serialized frame) has it moved into the result.
std::vector<Tensor> allgather(Comm& comm, Tensor mine, int tag = 0);

// Two-level rack-aware allreduce (DESIGN.md §10): ranks are grouped into
// racks of `ranks_per_rack` consecutive ranks (the last rack may be
// smaller); members fan their vector into the rack leader (rank
// floor(r/m)*m), the leaders run a ring allreduce among themselves, and
// the result fans back out. Bitwise deterministic: the sum order depends
// only on (n, ranks_per_rack), never on thread scheduling — but it is a
// different association than the flat ring's, so results are
// float-associativity-close, not bit-equal, to allreduce_sum.
// ranks_per_rack == 1 degenerates to the flat ring. Throws
// std::invalid_argument when ranks_per_rack < 1.
void hierarchical_allreduce_sum(Comm& comm, std::span<float> data,
                                int ranks_per_rack, int tag = 0);

// Two-level allgather of one 1-D U8 blob per rank (the serialized-
// CompressedTensor exchange path), returned in rank order. Members send
// their blob to the rack leader, leaders ring-allgather per-rack bundles,
// and each leader sends the full n-blob bundle back to its members.
// Throws std::invalid_argument for non-U8 input or ranks_per_rack < 1.
std::vector<Tensor> hierarchical_allgather(Comm& comm, Tensor mine,
                                           int ranks_per_rack, int tag = 0);

// Bundle framing used by hierarchical_allgather (and priced by
// comm::TopologyModel::allgather_volume): [u64 count][u64 len_i ...]
// [payload_0 ... payload_{count-1}], all fields host-endian (the transport
// is in-process). Blobs must be U8; unpack returns 1-D U8 tensors and
// throws std::runtime_error on a malformed bundle.
Tensor pack_blob_bundle(std::span<const Tensor> blobs);
std::vector<Tensor> unpack_blob_bundle(const Tensor& bundle);

}  // namespace grace::comm
