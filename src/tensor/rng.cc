#include "tensor/rng.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace grace {
namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

void Rng::uniforms(std::span<double> out) {
  uniforms(static_cast<int64_t>(out.size()),
           [&](int64_t first, std::span<const double> u) {
             std::copy(u.begin(), u.end(), out.begin() + first);
           });
}

void Rng::jump(const uint64_t (&poly)[4]) {
  uint64_t acc[4] = {0, 0, 0, 0};
  for (const uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      if ((word >> b) & 1) {
        for (int w = 0; w < 4; ++w) acc[w] ^= s_[w];
      }
      next_u64();
    }
  }
  std::copy_n(acc, 4, s_);
}

void Rng::start_lanes(uint64_t (&lanes)[4][4]) const {
  Rng lane = *this;
  for (int k = 0; k < 4; ++k) {
    if (k > 0) lane.jump(kJump4096);
    for (int w = 0; w < 4; ++w) lanes[w][k] = lane.s_[w];
  }
}

int64_t Rng::uniform_int(int64_t n) {
  return static_cast<int64_t>(uniform() * static_cast<double>(n));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-12) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

void Rng::fill_uniform(std::span<float> out, float lo, float hi) {
  for (auto& v : out) v = static_cast<float>(uniform(lo, hi));
}

void Rng::fill_normal(std::span<float> out, float mean, float stddev) {
  for (auto& v : out) v = static_cast<float>(normal(mean, stddev));
}

std::vector<int32_t> Rng::sample_indices(int64_t n, int64_t k) {
  k = std::min(k, n);
  std::set<int32_t> chosen;
  // Floyd's sampling: for j in [n-k, n), pick t in [0, j]; insert t or j.
  for (int64_t j = n - k; j < n; ++j) {
    auto t = static_cast<int32_t>(uniform_int(j + 1));
    if (!chosen.insert(t).second) chosen.insert(static_cast<int32_t>(j));
  }
  return {chosen.begin(), chosen.end()};
}

}  // namespace grace
