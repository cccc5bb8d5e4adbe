#include "stats.h"

#include <algorithm>
#include <cmath>

namespace hostbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double iqr_pct(const std::vector<double>& samples) {
  const double m = median(samples);
  if (m == 0.0) return 0.0;
  return (quantile(samples, 0.75) - quantile(samples, 0.25)) / std::fabs(m) *
         100.0;
}

}  // namespace hostbench
