// Order statistics for the benchmark's repeated measurements.
#pragma once

#include <vector>

namespace hostbench {

// Linear-interpolated quantile (q in [0, 1]) of the samples, the
// "inclusive" definition: q = 0 is the minimum, q = 1 the maximum. Returns
// 0 for an empty sample.
double quantile(std::vector<double> samples, double q);

inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

// Distance between the first and third quartiles as a percentage of the
// median (0 when the median is 0).
double iqr_pct(const std::vector<double>& samples);

}  // namespace hostbench
