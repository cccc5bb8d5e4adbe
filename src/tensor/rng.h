// Deterministic pseudo-random number generation (xoshiro256++ seeded via
// SplitMix64). Every stochastic component in the library draws from an
// explicitly-passed Rng so that runs are reproducible per worker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/simd.h"

namespace grace {

class Rng {
 public:
  // At the Avx2 level uniforms() draws whole groups of kLaneGroup on four
  // lanes of kLaneDraws each (DESIGN.md §9).
  static constexpr int64_t kLaneDraws = 4096;
  static constexpr int64_t kLaneGroup = 4 * kLaneDraws;
  // x^4096 mod P(x), where P is the characteristic polynomial of
  // xoshiro256's state update, as words from x^0 up: jump() by it moves a
  // state 4096 steps ahead.
  static constexpr uint64_t kJump4096[4] = {
      0xd7f4e8da7e228b85ULL, 0xd638d47ec5bcf595ULL, 0xaa6eb691cbf9ce10ULL,
      0x0f41cce3698fad39ULL};

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
  // Exactly the doubles out.size() calls of uniform() would return, in
  // order, leaving the generator where those calls leave it.
  void uniforms(std::span<double> out);
  // The draws of n calls of uniform(), handed to take(first, u) in pieces:
  // u holds draws [first, first + u.size()). The pieces cover [0, n) once
  // each, not in order, and the generator ends as after the n calls. At the
  // Avx2 level each whole kLaneGroup of draws runs on four lanes, lane k
  // starting k * kLaneDraws draws in; what is left, and the Scalar level,
  // draw in sequence.
  template <typename Take>
  void uniforms(int64_t n, Take&& take);
  // xoshiro's jump: moves the state to the sum, over GF(2), of the states
  // i steps ahead for each bit i of poly (words from x^0 up). With
  // x^d mod P that is the state d steps ahead.
  void jump(const uint64_t (&poly)[4]);
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
  // The four lanes' start states for the group that starts at this
  // state, as xoshiro_uniforms4 takes them: lanes[w][k] is word w of lane
  // k, and lane k is lane k - 1 jumped by kJump4096.
  void start_lanes(uint64_t (&lanes)[4][4]) const;

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

template <typename Take>
void Rng::uniforms(int64_t n, Take&& take) {
  constexpr int64_t kRound = 64;  // draws per lane per kernel call
  alignas(32) double u[4 * kRound];
  int64_t at = 0;
  if (util::simd::active_level() != util::simd::Level::Scalar) {
    for (; n - at >= kLaneGroup; at += kLaneGroup) {
      uint64_t lanes[4][4];
      start_lanes(lanes);
      for (int64_t r = 0; r < kLaneDraws; r += kRound) {
        util::simd::xoshiro_uniforms4(lanes, u, kRound);
        for (int64_t k = 0; k < 4; ++k) {
          take(at + k * kLaneDraws + r,
               std::span<const double>(u + k * kRound, kRound));
        }
      }
      for (int w = 0; w < 4; ++w) s_[w] = lanes[w][3];
    }
  }
  for (; at < n; at += 4 * kRound) {
    const int64_t m = std::min(4 * kRound, n - at);
    for (int64_t j = 0; j < m; ++j) u[j] = uniform();
    take(at, std::span<const double>(u, static_cast<size_t>(m)));
  }
}

}  // namespace grace
