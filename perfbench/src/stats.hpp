#pragma once
/// \file stats.hpp
/// Order statistics the harness reports: interpolated percentiles, the
/// median, and the rule that says whether a tail percentile is backed by
/// enough samples beyond it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Percentile q in [0, 1] by linear interpolation between closest ranks
/// (Hyndman-Fan type 7, numpy's default). Empty input gives 0.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

/// Arithmetic mean; empty input gives 0.
inline double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// Number of samples that lie strictly beyond the q-th percentile of n
/// samples: floor(n * (1 - q)), computed with a tolerance so that e.g.
/// q = 0.99 at n = 1000 counts 10, not 9.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double beyond = static_cast<double>(n) * (1.0 - q);
  return static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

/// A tail percentile is resolved when at least `min_beyond` samples lie
/// beyond it (10 by default): below that, the percentile of a run is just
/// its few slowest calls and repeats poorly.
inline bool tail_resolved(std::size_t n, double q, std::size_t min_beyond = 10) {
  return samples_beyond(n, q) >= min_beyond;
}

}  // namespace perfbench
