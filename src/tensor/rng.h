// Deterministic pseudo-random number generation (xoshiro256++ seeded via
// SplitMix64). Every stochastic component in the library draws from an
// explicitly-passed Rng so that runs are reproducible per worker.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace grace {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Inline: codecs draw once per element, and an out-of-line call per draw
  // cost more than the draw itself.
  uint64_t next_u64() {
    const uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1): the top 53 bits of one next_u64().
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n). n must be > 0.
  int64_t uniform_int(int64_t n);
  // Standard normal via Box-Muller (one value cached).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  bool bernoulli(double p) { return uniform() < p; }

  void fill_uniform(std::span<float> out, float lo, float hi);
  void fill_normal(std::span<float> out, float mean, float stddev);

  // k distinct indices drawn uniformly from [0, n), sorted ascending.
  // Uses Floyd's algorithm: O(k) memory, no O(n) shuffle.
  std::vector<int32_t> sample_indices(int64_t n, int64_t k);

  template <typename T>
  void shuffle(std::span<T> v) {
    for (int64_t i = static_cast<int64_t>(v.size()) - 1; i > 0; --i) {
      int64_t j = uniform_int(i + 1);
      std::swap(v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]);
    }
  }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace grace
