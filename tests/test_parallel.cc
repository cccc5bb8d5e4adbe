// The deterministic parallel runtime: thread-pool stress (nested
// submission from many worker threads), the per-thread lane limit, the
// fixed-chunk determinism contract of parallel_for / parallel_reduce,
// bitwise reproducibility of GEMM / reductions / top-k across thread
// counts and lanes, and thread-count invariance of full training runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"
#include "sim/tasks.h"
#include "tensor/matmul.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace grace {
namespace {

// Restores the global pool to its environment-configured size when a test
// that sweeps thread counts finishes.
struct PoolGuard {
  ~PoolGuard() {
    runtime::ThreadPool::global().resize(
        runtime::threads_from_env(std::getenv("GRACE_NUM_THREADS")));
  }
};

TEST(ThreadPool, EnvParsing) {
  const int fallback =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Unset / unparseable values fall back to hardware_concurrency.
  EXPECT_EQ(runtime::threads_from_env(nullptr), fallback);
  EXPECT_EQ(runtime::threads_from_env(""), fallback);
  EXPECT_EQ(runtime::threads_from_env("abc"), fallback);
  EXPECT_EQ(runtime::threads_from_env("4abc"), fallback);
  EXPECT_EQ(runtime::threads_from_env("4.5"), fallback);
  EXPECT_EQ(runtime::threads_from_env("  "), fallback);
  EXPECT_EQ(runtime::threads_from_env("99999999999999999999"), fallback);
  // Parsed but senseless counts clamp to the minimum of one lane.
  EXPECT_EQ(runtime::threads_from_env("0"), 1);
  EXPECT_EQ(runtime::threads_from_env("-4"), 1);
  // Valid counts pass through; surrounding whitespace is tolerated and
  // absurd counts clamp at 1024.
  EXPECT_EQ(runtime::threads_from_env("1"), 1);
  EXPECT_EQ(runtime::threads_from_env("3"), 3);
  EXPECT_EQ(runtime::threads_from_env("8"), 8);
  EXPECT_EQ(runtime::threads_from_env(" 8 "), 8);
  EXPECT_EQ(runtime::threads_from_env("99999"), 1024);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  PoolGuard guard;
  for (int threads : {1, 2, 8}) {
    runtime::ThreadPool::global().resize(threads);
    const int64_t n = 10007;  // prime: exercises a partial last chunk
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    runtime::parallel_for(n, 64, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, ParallelReduceCombinesInChunkOrder) {
  PoolGuard guard;
  for (int threads : {1, 2, 8}) {
    runtime::ThreadPool::global().resize(threads);
    // Map each chunk to its begin offset; an ordered combine must see the
    // offsets in ascending order no matter which thread ran which chunk.
    const auto order = runtime::parallel_reduce(
        1000, 32, std::vector<int64_t>{},
        [](int64_t b, int64_t) { return std::vector<int64_t>{b}; },
        [](std::vector<int64_t> acc, std::vector<int64_t> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
    ASSERT_TRUE(std::is_sorted(order.begin(), order.end()));
    ASSERT_EQ(order.size(), 32u);  // ceil(1000/32) chunks
    EXPECT_EQ(order.front(), 0);
    EXPECT_EQ(order.back(), 31 * 32);
  }
}

TEST(ThreadPool, PropagatesBodyExceptions) {
  PoolGuard guard;
  runtime::ThreadPool::global().resize(4);
  EXPECT_THROW(
      runtime::parallel_for(1000, 10,
                            [&](int64_t b, int64_t) {
                              if (b >= 500) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // The pool must stay usable after an exception drained the region.
  const auto total = runtime::parallel_reduce(
      100, 10, int64_t{0},
      [](int64_t b, int64_t e) { return e - b; },
      [](int64_t a, int64_t p) { return a + p; });
  EXPECT_EQ(total, 100);
}

TEST(ThreadPool, NestedSubmissionFromManyWorkerThreads) {
  PoolGuard guard;
  runtime::ThreadPool::global().resize(4);
  // Many external threads (like trainer ranks) hammer the shared pool
  // concurrently, and every task itself runs a nested parallel region.
  std::vector<std::thread> ranks;
  std::atomic<int64_t> failures{0};
  for (int r = 0; r < 8; ++r) {
    ranks.emplace_back([&failures] {
      for (int iter = 0; iter < 25; ++iter) {
        const auto sum = runtime::parallel_reduce(
            4096, 256, int64_t{0},
            [](int64_t b, int64_t e) {
              // Nested region inside a chunk of the outer region.
              return runtime::parallel_reduce(
                  e - b, 64, int64_t{0},
                  [b](int64_t lo, int64_t hi) {
                    int64_t acc = 0;
                    for (int64_t i = lo; i < hi; ++i) acc += b + i;
                    return acc;
                  },
                  [](int64_t a, int64_t p) { return a + p; });
            },
            [](int64_t a, int64_t p) { return a + p; });
        if (sum != 4096 * 4095 / 2) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Lanes per thread ---------------------------------------------------

// The threads that ran at least one chunk of a 64-chunk region, each chunk
// long enough that idle pool workers get the chance to claim some.
std::set<std::thread::id> threads_running_chunks() {
  std::mutex mu;
  std::set<std::thread::id> ids;
  runtime::parallel_for(64, 1, [&](int64_t, int64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  return ids;
}

TEST(LaneLimit, OneLaneRunsEveryChunkOnTheCaller) {
  PoolGuard guard;
  runtime::ThreadPool::global().resize(4);
  const runtime::LaneLimit one(1);
  EXPECT_EQ(runtime::lanes(), 1);
  EXPECT_EQ(runtime::num_threads(), 4);  // the pool keeps its size
  EXPECT_EQ(threads_running_chunks(),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(LaneLimit, TwoLanesUseAtMostTwoThreads) {
  PoolGuard guard;
  runtime::ThreadPool::global().resize(4);
  {
    const runtime::LaneLimit two(2);
    EXPECT_EQ(runtime::lanes(), 2);
    EXPECT_LE(threads_running_chunks().size(), 2u);
  }
  // A limit above the pool size is capped at it.
  const runtime::LaneLimit wide(64);
  EXPECT_EQ(runtime::lanes(), 4);
}

TEST(LaneLimit, LeavingTheScopeRestoresThePreviousLimit) {
  PoolGuard guard;
  runtime::ThreadPool::global().resize(4);
  EXPECT_EQ(runtime::lanes(), 4);
  {
    const runtime::LaneLimit outer(2);
    {
      const runtime::LaneLimit inner(1);
      EXPECT_EQ(runtime::lanes(), 1);
    }
    EXPECT_EQ(runtime::lanes(), 2);
    EXPECT_THROW(
        {
          const runtime::LaneLimit thrown(1);
          runtime::parallel_for(100, 10, [](int64_t, int64_t) {
            throw std::runtime_error("body failed");
          });
        },
        std::runtime_error);
    EXPECT_EQ(runtime::lanes(), 2);
  }
  EXPECT_EQ(runtime::lanes(), 4);
  // The limit belongs to the thread that set it.
  const runtime::LaneLimit one(1);
  int other = 0;
  std::thread([&] { other = runtime::lanes(); }).join();
  EXPECT_EQ(other, 4);
}

// --- Bitwise determinism across thread counts --------------------------

std::vector<float> random_vec(size_t n, uint64_t seed) {
  std::vector<float> x(n);
  Rng rng(seed);
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

TEST(Determinism, ReductionsBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // Large enough that the kernels chunk (reduce grain is 8192).
  const auto x = random_vec(100003, 11);

  runtime::ThreadPool::global().resize(1);
  const float sum1 = ops::sum(x);
  const float l11 = ops::l1_norm(x);
  const float l21 = ops::l2_norm(x);
  const float linf1 = ops::linf_norm(x);
  const int64_t amax1 = ops::argmax(x);

  for (int threads : {2, 8}) {
    runtime::ThreadPool::global().resize(threads);
    EXPECT_EQ(ops::sum(x), sum1) << threads;        // bitwise: EQ, not NEAR
    EXPECT_EQ(ops::l1_norm(x), l11) << threads;
    EXPECT_EQ(ops::l2_norm(x), l21) << threads;
    EXPECT_EQ(ops::linf_norm(x), linf1) << threads;
    EXPECT_EQ(ops::argmax(x), amax1) << threads;
  }
}

// The reductions' summation tree: each 8192-element chunk added in index
// order from 0.0, the chunk partials added in chunk order from 0.0.
template <typename Term>
double chunk_serial_sum(const std::vector<float>& x, Term term) {
  double total = 0.0;
  for (size_t c = 0; c < x.size(); c += 8192) {
    double part = 0.0;
    for (size_t i = c; i < std::min(x.size(), c + 8192); ++i) part += term(x[i]);
    total += part;
  }
  return total;
}

TEST(Determinism, ReductionsMatchTheChunkSerialSum) {
  PoolGuard guard;
  for (int64_t n : {1, 8191, 8192, 8193, 4 * 8192, 4 * 8192 + 1,
                    9 * 8192 + 5, 196608}) {
    // Normal values, and the same with +-2^53 opening pairs of chunks: a
    // chunk's partial then rounds its other terms to even integers, and the
    // pairs cancel, so sum()'s float shows any change in the add order.
    std::vector<std::vector<float>> inputs(2, random_vec(static_cast<size_t>(n), 7));
    const int64_t chunks = (n + 8191) / 8192;
    for (int64_t c = 0; c + 1 < chunks; c += 2) {
      inputs[1][static_cast<size_t>(c * 8192)] = 0x1.0p53f;
      inputs[1][static_cast<size_t>((c + 1) * 8192)] = -0x1.0p53f;
    }
    for (const auto& x : inputs) {
      const auto bits = [](float v) { return std::bit_cast<uint32_t>(v); };
      const uint32_t sum = bits(static_cast<float>(
          chunk_serial_sum(x, [](float v) { return double{v}; })));
      const uint32_t l1 = bits(static_cast<float>(
          chunk_serial_sum(x, [](float v) { return double{std::fabs(v)}; })));
      const uint32_t l2 = bits(static_cast<float>(std::sqrt(chunk_serial_sum(
          x, [](float v) { return static_cast<double>(v) * v; }))));
      for (int threads : {1, 2, 4}) {
        runtime::ThreadPool::global().resize(threads);
        SCOPED_TRACE("n=" + std::to_string(n) + " threads=" + std::to_string(threads));
        EXPECT_EQ(bits(ops::sum(x)), sum);
        EXPECT_EQ(bits(ops::l1_norm(x)), l1);
        EXPECT_EQ(bits(ops::l2_norm(x)), l2);
      }
    }
  }
}

TEST(Determinism, GemmBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const int64_t m = 97, n = 65, k = 83;  // odd sizes: all remainder paths
  const auto a = random_vec(static_cast<size_t>(m * k), 21);
  const auto b = random_vec(static_cast<size_t>(k * n), 22);

  runtime::ThreadPool::global().resize(1);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.5f);
  ops::gemm(false, false, m, n, k, 1.3f, a, b, 0.7f, c1);

  for (int threads : {2, 8}) {
    runtime::ThreadPool::global().resize(threads);
    std::vector<float> c(static_cast<size_t>(m * n), 0.5f);
    ops::gemm(false, false, m, n, k, 1.3f, a, b, 0.7f, c);
    ASSERT_EQ(c, c1) << threads;  // element-wise bitwise equality
  }
}

TEST(Determinism, GemmMatchesNaiveReference) {
  PoolGuard guard;
  runtime::ThreadPool::global().resize(4);
  const int64_t m = 33, n = 29, k = 41;
  const auto a = random_vec(static_cast<size_t>(m * k), 31);
  const auto b = random_vec(static_cast<size_t>(k * n), 32);
  std::vector<float> c(static_cast<size_t>(m * n));
  ops::gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<size_t>(i * k + p)]) *
               b[static_cast<size_t>(p * n + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * n + j)], acc, 1e-3)
          << "at " << i << "," << j;
    }
  }
}

TEST(Determinism, TopkIdenticalAcrossThreadCountsAndMatchesBruteForce) {
  PoolGuard guard;
  // Big enough to trigger the chunked pre-selection path (grain 65536):
  // n >= 2^17.
  const auto x = random_vec(150001, 41);
  const int64_t k = 2000;

  runtime::ThreadPool::global().resize(1);
  const auto idx1 = ops::topk_abs_indices(x, k);

  for (int threads : {2, 8}) {
    runtime::ThreadPool::global().resize(threads);
    ASSERT_EQ(ops::topk_abs_indices(x, k), idx1) << threads;
  }
  {
    // A one-lane caller on a wide pool takes the single-selection path.
    const runtime::LaneLimit one(1);
    ASSERT_EQ(ops::topk_abs_indices(x, k), idx1);
  }

  // Brute force: sort all indices by (|x| desc, index asc), take k.
  std::vector<int32_t> all(x.size());
  std::iota(all.begin(), all.end(), 0);
  std::sort(all.begin(), all.end(), [&](int32_t a, int32_t b) {
    const float fa = std::fabs(x[static_cast<size_t>(a)]);
    const float fb = std::fabs(x[static_cast<size_t>(b)]);
    return fa != fb ? fa > fb : a < b;
  });
  all.resize(static_cast<size_t>(k));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(idx1, all);
}

TEST(Determinism, TrainerLossesBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // At pool 4, 1, 2 and 4 ranks get 4, 2 and 1 lanes each.
  for (int workers : {1, 2, 4}) {
    for (const char* spec : {"none", "topk(0.1)"}) {
      SCOPED_TRACE(std::string(spec) + " on " + std::to_string(workers) +
                   " workers");
      sim::Benchmark b = sim::make_cnn_classification(0.1);
      sim::TrainConfig cfg = sim::default_config(b);
      cfg.n_workers = workers;
      cfg.net.n_workers = workers;
      cfg.epochs = 1;
      cfg.grace.compressor_spec = spec;

      runtime::ThreadPool::global().resize(1);
      const sim::RunResult r1 = sim::train(b.factory, cfg);
      runtime::ThreadPool::global().resize(4);
      const sim::RunResult r4 = sim::train(b.factory, cfg);

      ASSERT_EQ(r1.epochs.size(), r4.epochs.size());
      for (size_t e = 0; e < r1.epochs.size(); ++e) {
        // Bitwise-identical training trajectory: the per-epoch loss
        // averages (doubles accumulated from every per-iteration float
        // loss) and the eval quality must match exactly, not
        // approximately.
        EXPECT_EQ(r1.epochs[e].train_loss, r4.epochs[e].train_loss)
            << "epoch " << e;
        EXPECT_EQ(r1.epochs[e].quality, r4.epochs[e].quality)
            << "epoch " << e;
      }
      EXPECT_EQ(r1.final_quality, r4.final_quality);
      EXPECT_EQ(r1.parameters_crc32, r4.parameters_crc32);
      EXPECT_TRUE(r4.replicas_in_sync);
    }
  }
}

}  // namespace
}  // namespace grace
