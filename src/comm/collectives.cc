#include "comm/collectives.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/ops.h"

namespace grace::comm {
namespace {

struct ChunkRange {
  int64_t begin = 0;
  int64_t size = 0;
};

// Near-equal split of [0, n) into `parts` ranges (first n % parts ranges get
// one extra element). Empty ranges are valid when n < parts.
ChunkRange chunk_range(int64_t n, int parts, int idx) {
  const int64_t base = n / parts;
  const int64_t extra = n % parts;
  ChunkRange r;
  r.begin = idx * base + std::min<int64_t>(idx, extra);
  r.size = base + (idx < extra ? 1 : 0);
  return r;
}

std::span<float> slice(std::span<float> data, ChunkRange r) {
  return data.subspan(static_cast<size_t>(r.begin), static_cast<size_t>(r.size));
}

// A received chunk or vector must hold exactly the floats it stands for:
// the ops that fold it in would otherwise read past it or leave a gap.
[[noreturn]] void wrong_size(const char* what, int64_t want, int64_t have) {
  throw std::runtime_error(std::string("allreduce: ") + what + " holds " +
                           std::to_string(have) + " floats, want " +
                           std::to_string(want));
}

// Ring allreduce over the `count` participants at ranks {0, stride,
// 2*stride, ...}. The flat collective is the stride == 1 case; the
// hierarchical leader ring uses stride == ranks_per_rack. Must only be
// called by participant ranks (rank % stride == 0, rank / stride < count).
void ring_allreduce_strided(Comm& comm, std::span<float> data, int count,
                            int stride, int tag) {
  if (count == 1) return;
  const int idx = comm.rank() / stride;
  const int next = ((idx + 1) % count) * stride;
  const int prev = ((idx + count - 1) % count) * stride;
  const auto total = static_cast<int64_t>(data.size());
  // One buffer circulates around the ring: each message moves the buffer
  // a rank received into its next send, so no step allocates, and the one
  // a rank holds after its last receive is kept for its next call.
  thread_local Tensor buffer;
  const auto receive = [&](int chunk) {
    buffer = comm.recv(prev, tag);
    const ChunkRange r = chunk_range(total, count, chunk);
    if (buffer.numel() != r.size) {
      wrong_size("received chunk", r.size, buffer.numel());
    }
    return slice(data, r);
  };

  // Phase 1: reduce-scatter. At step s participant i sends the partial sum
  // of chunk (i - s) mod count and receives that of chunk (i - s - 1), adds
  // its own elements into the received buffer and forwards the buffer at
  // step s + 1. The sums are the ones an add into `data` would make, as
  // a + b == b + a. After count-1 steps, participant i holds the full sum
  // of chunk (i+1) mod count.
  buffer.assign(slice(data, chunk_range(total, count, idx)));
  for (int step = 0; step < count - 1; ++step) {
    comm.send(next, std::move(buffer), tag);
    const std::span<const float> own =
        receive((idx - step - 1 + 2 * count) % count);
    ops::add(buffer.f32(), own);
  }
  ops::copy(slice(data, chunk_range(total, count, (idx + 1) % count)),
            buffer.f32());
  // Phase 2: allgather of the reduced chunks. Participant i starts with its
  // own full sum; every later step forwards the chunk it received.
  for (int step = 0; step < count - 1; ++step) {
    comm.send(next, std::move(buffer), tag);
    const std::span<float> chunk = receive((idx - step + 2 * count) % count);
    ops::copy(chunk, buffer.f32());
  }
}

// Ring allgather over the same strided participant set; returns one tensor
// per participant, indexed by ring position (position i originated at rank
// i * stride). Tensors keep their own shapes, so participants may
// contribute different sizes.
std::vector<Tensor> ring_allgather_strided(Comm& comm, Tensor mine,
                                           int count, int stride, int tag) {
  const int idx = comm.rank() / stride;
  std::vector<Tensor> out(static_cast<size_t>(count));
  out[static_cast<size_t>(idx)] = std::move(mine);
  if (count == 1) return out;
  // count-1 steps, each participant forwards exactly one tensor per step
  // (at step s it passes along the tensor that originated s hops
  // upstream). Per-participant traffic is the sum of the other
  // participants' payloads instead of (count-1) copies of its own, and no
  // participant ever sends the same payload twice.
  const int next = ((idx + 1) % count) * stride;
  const int prev = ((idx + count - 1) % count) * stride;
  int forward = idx;  // ring position of the tensor sent this step
  for (int step = 0; step < count - 1; ++step) {
    comm.send(next, out[static_cast<size_t>(forward)], tag);
    const int incoming = (idx - step - 1 + 2 * count) % count;
    out[static_cast<size_t>(incoming)] = comm.recv(prev, tag);
    forward = incoming;
  }
  return out;
}

void require_rack_size(int ranks_per_rack) {
  if (ranks_per_rack < 1) {
    throw std::invalid_argument("hierarchical collective: ranks_per_rack must be >= 1");
  }
}

}  // namespace

void allreduce_sum(Comm& comm, std::span<float> data, int tag) {
  ring_allreduce_strided(comm, data, comm.size(), 1, tag);
}

std::vector<Tensor> allgather(Comm& comm, Tensor mine, int tag) {
  return ring_allgather_strided(comm, std::move(mine), comm.size(), 1, tag);
}

void hierarchical_allreduce_sum(Comm& comm, std::span<float> data,
                                int ranks_per_rack, int tag) {
  require_rack_size(ranks_per_rack);
  const int n = comm.size();
  if (n == 1) return;
  const int m = ranks_per_rack;
  if (m == 1) {  // every rank is a leader: plain flat ring
    allreduce_sum(comm, data, tag);
    return;
  }
  const int rank = comm.rank();
  const int leader = (rank / m) * m;
  if (rank != leader) {
    comm.send(leader, Tensor::from(data), tag);
    Tensor summed = comm.recv(leader, tag);
    if (summed.numel() != static_cast<int64_t>(data.size())) {
      wrong_size("rack sum", static_cast<int64_t>(data.size()), summed.numel());
    }
    ops::copy(data, summed.f32());
    return;
  }
  // Fan-in: accumulate rack members in rank order (deterministic — each
  // recv is directed at a specific source).
  const int rack_end = std::min(leader + m, n);
  for (int member = leader + 1; member < rack_end; ++member) {
    Tensor incoming = comm.recv(member, tag);
    if (incoming.numel() != static_cast<int64_t>(data.size())) {
      wrong_size("rack member's vector", static_cast<int64_t>(data.size()),
                 incoming.numel());
    }
    ops::add(data, incoming.f32());
  }
  const int racks = (n + m - 1) / m;
  if (racks > 1) ring_allreduce_strided(comm, data, racks, m, tag);
  // Fan-out: every member gets the full result.
  const Tensor result = Tensor::from(data);
  for (int member = leader + 1; member < rack_end; ++member) {
    comm.send(member, result, tag);
  }
}

std::vector<Tensor> hierarchical_allgather(Comm& comm, Tensor mine,
                                           int ranks_per_rack, int tag) {
  require_rack_size(ranks_per_rack);
  if (mine.dtype() != DType::U8) {
    throw std::invalid_argument("hierarchical_allgather: blobs must be U8");
  }
  const int n = comm.size();
  if (n == 1) {
    std::vector<Tensor> out;
    out.push_back(std::move(mine));
    return out;
  }
  const int m = ranks_per_rack;
  if (m == 1) return allgather(comm, std::move(mine), tag);
  const int rank = comm.rank();
  const int leader = (rank / m) * m;
  if (rank != leader) {
    comm.send(leader, std::move(mine), tag);
    return unpack_blob_bundle(comm.recv(leader, tag));
  }
  // Fan-in: collect this rack's blobs in rank order.
  const int rack_end = std::min(leader + m, n);
  std::vector<Tensor> rack(static_cast<size_t>(rack_end - leader));
  rack[0] = std::move(mine);
  for (int member = leader + 1; member < rack_end; ++member) {
    rack[static_cast<size_t>(member - leader)] = comm.recv(member, tag);
  }
  // Leader ring: exchange per-rack bundles; positions are rack indices.
  const int racks = (n + m - 1) / m;
  std::vector<Tensor> bundles;
  if (racks > 1) {
    bundles = ring_allgather_strided(comm, pack_blob_bundle(rack), racks, m, tag);
  } else {
    bundles.push_back(pack_blob_bundle(rack));
  }
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(n));
  for (const Tensor& bundle : bundles) {
    for (Tensor& blob : unpack_blob_bundle(bundle)) out.push_back(std::move(blob));
  }
  assert(static_cast<int>(out.size()) == n);
  // Fan-out: members receive the full n-blob bundle.
  if (rack_end > leader + 1) {
    const Tensor full = pack_blob_bundle(out);
    for (int member = leader + 1; member < rack_end; ++member) {
      comm.send(member, full, tag);
    }
  }
  return out;
}

Tensor pack_blob_bundle(std::span<const Tensor> blobs) {
  uint64_t payload = 0;
  for (const Tensor& b : blobs) {
    if (b.dtype() != DType::U8) {
      throw std::invalid_argument("pack_blob_bundle: blobs must be U8");
    }
    payload += b.size_bytes();
  }
  const uint64_t header = 8 * (1 + blobs.size());
  Tensor out(DType::U8, Shape{{static_cast<int64_t>(header + payload)}});
  auto dst = out.u8();
  size_t off = 0;
  const auto put_u64 = [&](uint64_t v) {
    std::memcpy(dst.data() + off, &v, 8);
    off += 8;
  };
  put_u64(static_cast<uint64_t>(blobs.size()));
  for (const Tensor& b : blobs) put_u64(b.size_bytes());
  for (const Tensor& b : blobs) {
    if (b.size_bytes() > 0) {
      std::memcpy(dst.data() + off, b.u8().data(), b.size_bytes());
    }
    off += b.size_bytes();
  }
  assert(off == dst.size());
  return out;
}

std::vector<Tensor> unpack_blob_bundle(const Tensor& bundle) {
  if (bundle.dtype() != DType::U8) {
    throw std::runtime_error("unpack_blob_bundle: bundle must be U8");
  }
  const auto src = bundle.u8();
  if (src.size() < 8) {
    throw std::runtime_error("unpack_blob_bundle: truncated header");
  }
  size_t off = 0;
  const auto take_u64 = [&]() {
    uint64_t v = 0;
    std::memcpy(&v, src.data() + off, 8);
    off += 8;
    return v;
  };
  const uint64_t count = take_u64();
  if (count > (src.size() - 8) / 8) {
    throw std::runtime_error("unpack_blob_bundle: blob count exceeds bundle size");
  }
  // Each length is checked against the payload bytes still unclaimed
  // before it is taken from them: a sum of lengths could wrap 2^64 back to
  // the bundle's size.
  std::vector<uint64_t> lens(static_cast<size_t>(count));
  uint64_t left = src.size() - 8 * (1 + count);
  for (auto& len : lens) {
    len = take_u64();
    if (len > left) {
      throw std::runtime_error("unpack_blob_bundle: blob length exceeds bundle size");
    }
    left -= len;
  }
  if (left != 0) {
    throw std::runtime_error("unpack_blob_bundle: payload size mismatch");
  }
  std::vector<Tensor> out;
  out.reserve(lens.size());
  const auto bytes = bundle.bytes();
  for (const uint64_t len : lens) {
    const auto blob = bytes.subspan(off, static_cast<size_t>(len));
    out.push_back(Tensor::from_bytes(
        DType::U8, Shape{{static_cast<int64_t>(len)}}, blob));
    off += static_cast<size_t>(len);
  }
  return out;
}

}  // namespace grace::comm
