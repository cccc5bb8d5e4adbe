// Process-wide deterministic parallel compute runtime.
//
// One shared ThreadPool serves every caller in the process — trainer worker
// threads (one per simulated rank) and the main thread alike. Pool size
// comes from GRACE_NUM_THREADS (default: hardware_concurrency).
//
// Lane rule: a thread's parallel regions use at most lanes() lanes — the
// pool size, unless a LaneLimit scope narrows it. train() gives each of its
// n rank threads max(1, pool / n) lanes. Without that share, each rank
// fanned every multi-chunk kernel out to a pool whose cores the rank
// threads themselves already filled: on a 4-vCPU avx2 host, 4 ranks over a
// 4-lane pool trained hostbench's ncf-dense at about 2970 samples per
// CPU-second, against about 4150 with a one-lane pool and bit-identical
// losses.
//
// Determinism contract: parallel_for / parallel_reduce split [0, n) into
// chunks whose boundaries depend only on (n, grain) — never on the thread
// count or on scheduling. parallel_reduce combines the per-chunk partials
// in chunk order on the calling thread. A kernel built on these primitives
// therefore produces bitwise-identical results with 1, 2, or 64 threads,
// and with GRACE_NUM_THREADS=1 vs. unset.
//
// Deadlock freedom: the calling thread always participates in its own
// region (it claims chunks from the same shared counter the workers do),
// so a region completes even if every pool worker is busy elsewhere.
// This makes nested parallel_for calls — e.g. a conv kernel invoking a
// parallel GEMM from inside a pool task — safe.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace grace::runtime {

class ThreadPool {
 public:
  // A pool of `threads` total lanes spawns threads-1 workers; the thread
  // calling parallel_for is the remaining lane.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Enqueue a task for the workers. Tasks must not block on other tasks.
  void submit(std::function<void()> task);

  // The process-wide pool, sized by GRACE_NUM_THREADS on first use.
  static ThreadPool& global();

  // Re-size the pool (used by tests and bench_kernels to sweep thread
  // counts). Must not be called while parallel regions are in flight.
  void resize(int threads);

 private:
  void start(int threads);
  void stop();
  void worker_loop();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Parse a GRACE_NUM_THREADS value. null/empty/unparseable (non-numeric,
// trailing garbage, out of long range) fall back to hardware_concurrency
// (>= 1); a parsed 0/negative clamps to 1; anything above 1024 clamps to
// 1024; surrounding whitespace is tolerated. Exposed for tests.
int threads_from_env(const char* value);

// Total lanes (workers + caller) of the global pool.
int num_threads();

// Lanes the calling thread's parallel regions may use: the innermost
// LaneLimit in force on this thread, capped at num_threads().
int lanes();

// Limits the calling thread's parallel regions to `lanes` lanes (at least
// one) while in scope, and restores the previous limit when it ends. The
// chunking is unchanged, so results stay bitwise identical.
class LaneLimit {
 public:
  explicit LaneLimit(int lanes);
  ~LaneLimit();

  LaneLimit(const LaneLimit&) = delete;
  LaneLimit& operator=(const LaneLimit&) = delete;

 private:
  int previous_;
};

namespace detail {

// Fixed chunking of [0, n): ceil(n / grain) chunks of `grain` elements
// (last chunk partial). grain < 1 is treated as 1.
int64_t num_chunks(int64_t n, int64_t grain);

// Multi-threaded region execution (type-erased): runs body(chunk, begin,
// end) once per chunk on at most lanes() - 1 pool workers plus the caller;
// returns when every chunk is done. Exceptions from body are rethrown on
// the caller.
void parallel_chunks_impl(
    int64_t n, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& body);

// Runs body(chunk_index, begin, end) once per chunk. The single-threaded /
// single-chunk fallback invokes the typed body directly — type-erasing it
// through std::function would block inlining and constant propagation into
// hot kernels (measured ~1.7x slowdown on the blocked GEMM); only work that
// actually fans out to pool workers pays for erasure.
template <typename Body>
void parallel_chunks(int64_t n, int64_t grain, Body&& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int64_t chunks = num_chunks(n, grain);
  if (chunks == 1 || lanes() == 1) {
    // Same chunk boundaries, executed in order on the caller: bitwise
    // identical to the multi-threaded path.
    for (int64_t c = 0; c < chunks; ++c) {
      body(c, c * grain, std::min<int64_t>(n, c * grain + grain));
    }
    return;
  }
  parallel_chunks_impl(n, grain, std::cref(body));
}

}  // namespace detail

// Runs body(begin, end) over disjoint subranges covering [0, n). The body
// must only write state owned by its subrange.
template <typename Body>
void parallel_for(int64_t n, int64_t grain, Body&& body) {
  detail::parallel_chunks(
      n, grain, [&](int64_t, int64_t begin, int64_t end) { body(begin, end); });
}

// Deterministic reduction: acc = combine(acc, map(begin, end)) over the
// fixed chunks of [0, n), combined in ascending chunk order. Chunking (and
// hence the floating-point combination tree) is independent of the thread
// count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(int64_t n, int64_t grain, T identity, Map&& map,
                  Combine&& combine) {
  if (n <= 0) return identity;
  const int64_t chunks = detail::num_chunks(n, grain);
  if (chunks <= 1) return combine(std::move(identity), map(int64_t{0}, n));
  std::vector<T> parts(static_cast<size_t>(chunks));
  detail::parallel_chunks(n, grain,
                          [&](int64_t c, int64_t begin, int64_t end) {
                            parts[static_cast<size_t>(c)] = map(begin, end);
                          });
  T acc = std::move(identity);
  for (auto& p : parts) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace grace::runtime
