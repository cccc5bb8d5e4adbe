#include "runtime/thread_pool.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

namespace grace::runtime {

ThreadPool::ThreadPool(int threads) { start(threads); }

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::start(int threads) {
  num_threads_ = threads < 1 ? 1 : threads;
  stopping_ = false;
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  queue_.clear();
}

void ThreadPool::resize(int threads) {
  stop();
  start(threads);
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(threads_from_env(std::getenv("GRACE_NUM_THREADS")));
  return pool;
}

int threads_from_env(const char* value) {
  const int fallback =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  // No digits at all. Checked before the whitespace skip, which would walk
  // an all-blank value to its end and pass it off as a parsed 0.
  if (end == value) return fallback;
  // Tolerate surrounding whitespace (strtol already skips leading), but
  // any other trailing garbage means the value is not a thread count.
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (*end != '\0' || errno == ERANGE) return fallback;
  // A parsed-but-senseless count (0, negative) clamps to 1 rather than
  // silently re-enabling full parallelism: the user asked for "as little
  // as possible", not for hardware_concurrency.
  if (parsed < 1) return 1;
  return static_cast<int>(std::min<long>(parsed, 1024));
}

int num_threads() { return ThreadPool::global().num_threads(); }

namespace {
// 0: no LaneLimit in force on this thread.
thread_local int tl_lane_limit = 0;
}  // namespace

int lanes() {
  const int pool = num_threads();
  return tl_lane_limit == 0 ? pool : std::min(tl_lane_limit, pool);
}

LaneLimit::LaneLimit(int lanes) : previous_(tl_lane_limit) {
  tl_lane_limit = std::max(1, lanes);
}

LaneLimit::~LaneLimit() { tl_lane_limit = previous_; }

namespace detail {

int64_t num_chunks(int64_t n, int64_t grain) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

namespace {

// Shared state of one parallel region. Workers and the caller race to claim
// chunk indices from `next`; the caller blocks until `done` reaches the
// chunk count. Chunk -> range mapping is pure arithmetic on (n, grain), so
// which thread runs a chunk never affects what the chunk computes.
struct Region {
  int64_t grain = 1;
  int64_t n = 0;
  int64_t chunks = 0;
  const std::function<void(int64_t, int64_t, int64_t)>* body = nullptr;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  int64_t done = 0;
  std::exception_ptr error;

  void run_chunks() {
    int64_t finished = 0;
    std::exception_ptr err;
    for (;;) {
      const int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      const int64_t begin = c * grain;
      const int64_t end = std::min(n, begin + grain);
      try {
        (*body)(c, begin, end);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
      ++finished;
    }
    if (finished > 0 || err) {
      std::lock_guard<std::mutex> lock(mu);
      done += finished;
      if (err && !error) error = err;
      if (done == chunks) cv.notify_all();
    }
  }
};

}  // namespace

void parallel_chunks_impl(
    int64_t n, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& body) {
  const int64_t chunks = num_chunks(n, grain);
  ThreadPool& pool = ThreadPool::global();
  auto region = std::make_shared<Region>();
  region->grain = grain;
  region->n = n;
  region->chunks = chunks;
  region->body = &body;
  const int64_t helpers = std::min<int64_t>(lanes() - 1, chunks - 1);
  for (int64_t i = 0; i < helpers; ++i) {
    pool.submit([region] { region->run_chunks(); });
  }
  region->run_chunks();
  {
    std::unique_lock<std::mutex> lock(region->mu);
    region->cv.wait(lock, [&] { return region->done == region->chunks; });
    if (region->error) std::rethrow_exception(region->error);
  }
}

}  // namespace detail

}  // namespace grace::runtime
