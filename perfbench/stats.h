// Statistics helpers shared by the benchmark program and its tests:
// sample percentiles, bucket-interpolated quantiles over obs::Histogram
// snapshots, and the seeded Poisson arrival schedule of the open-loop load.
#ifndef SCIS_PERFBENCH_STATS_H_
#define SCIS_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/rng.h"

namespace perfbench {

// Nearest-rank percentile: the ceil(q·n)-th smallest sample (q in [0, 1];
// q = 0 gives the minimum). 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t at = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(at, v.size() - 1)];
}

// Quantile of a fixed-bucket histogram (bucket i counts observations
// <= bounds[i]; counts has one more entry, the overflow bucket). The rank
// q·total is located by cumulative count and interpolated linearly inside
// its bucket, whose lower edge is the previous bound (0 for the first).
// Ranks in the overflow bucket report the last bound: the histogram holds
// no upper edge for them. 0 for an empty histogram.
inline double HistogramQuantile(const std::vector<double>& bounds,
                                const std::vector<uint64_t>& counts,
                                double q) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (size_t i = 0; i < bounds.size() && i < counts.size(); ++i) {
    const double next = cum + static_cast<double>(counts[i]);
    if (counts[i] > 0 && next >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + (bounds[i] - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cum = next;
  }
  return bounds.back();
}

// Poisson arrivals at `rate` per second over [0, seconds): exponential
// gaps drawn by inversion from scis::Rng, so one seed gives one schedule
// on every platform. Returns ascending offsets in seconds.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                           double seconds) {
  std::vector<double> out;
  if (rate <= 0.0 || seconds <= 0.0) return out;
  scis::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.Uniform()) / rate;
    if (t >= seconds) return out;
    out.push_back(t);
  }
}

}  // namespace perfbench

#endif  // SCIS_PERFBENCH_STATS_H_
