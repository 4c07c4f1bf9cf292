// Tests for stats.h: the sample percentile, the bucket-interpolated
// histogram quantile, and the seeded Poisson schedule. Exits non-zero on
// the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestPercentile() {
  using perfbench::Percentile;
  Check(Percentile({}, 0.5) == 0.0, "empty sample gives 0");
  Check(Percentile({7.0}, 0.99) == 7.0, "single sample");
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  Check(Percentile(v, 0.0) == 1.0, "q=0 is the minimum");
  Check(Percentile(v, 0.5) == 5.0, "nearest-rank median of 1..10 is 5");
  Check(Percentile(v, 0.51) == 6.0, "rank rounds up");
  Check(Percentile(v, 0.99) == 10.0, "p99 of 10 samples is the maximum");
  Check(Percentile(v, 1.0) == 10.0, "q=1 is the maximum");
  std::vector<double> big(1000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(1000 - i);
  Check(Percentile(big, 0.99) == 990.0, "p99 of 1..1000 is 990");
}

void TestHistogramQuantile() {
  using perfbench::HistogramQuantile;
  const std::vector<double> bounds = {1, 2, 4, 8};
  Check(HistogramQuantile(bounds, {0, 0, 0, 0, 0}, 0.5) == 0.0,
        "empty histogram gives 0");
  // 10 observations in (2, 4]: the median interpolates to the middle.
  Check(Near(HistogramQuantile(bounds, {0, 0, 10, 0, 0}, 0.5), 3.0),
        "median interpolates inside its bucket");
  // 4 in [0,1], 4 in (1,2], 2 in (2,4]: rank 5 is 1/4 into bucket 2.
  Check(Near(HistogramQuantile(bounds, {4, 4, 2, 0, 0}, 0.5), 1.25),
        "rank located by cumulative count");
  Check(Near(HistogramQuantile(bounds, {4, 4, 2, 0, 0}, 0.4), 1.0),
        "rank on a bucket edge reports the edge");
  Check(Near(HistogramQuantile(bounds, {4, 4, 2, 0, 0}, 1.0), 4.0),
        "q=1 is the upper edge of the last non-empty bucket");
  Check(HistogramQuantile(bounds, {0, 0, 0, 1, 9}, 0.99) == 8.0,
        "overflow ranks report the last bound");
}

void TestPoissonSchedule() {
  using perfbench::PoissonSchedule;
  const std::vector<double> a = PoissonSchedule(42, 2000.0, 5.0);
  const std::vector<double> b = PoissonSchedule(42, 2000.0, 5.0);
  const std::vector<double> c = PoissonSchedule(43, 2000.0, 5.0);
  Check(a == b, "one seed reproduces the schedule exactly");
  Check(a != c, "another seed gives another schedule");
  Check(PoissonSchedule(42, 0.0, 5.0).empty(), "zero rate sends nothing");
  bool sorted = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 0.0 || a[i] >= 5.0 || (i > 0 && a[i] < a[i - 1])) sorted = false;
  }
  Check(sorted, "offsets ascend inside [0, seconds)");
  // 10000 expected arrivals; Poisson sd is 100, allow 5 sd.
  Check(std::fabs(static_cast<double>(a.size()) - 10000.0) < 500.0,
        "count matches rate x seconds");
  // Exponential gaps: the share of gaps below the mean is 1 - 1/e.
  size_t below = 0;
  for (size_t i = 1; i < a.size(); ++i) below += (a[i] - a[i - 1]) < 1.0 / 2000.0;
  const double share = static_cast<double>(below) / static_cast<double>(a.size() - 1);
  Check(std::fabs(share - (1.0 - std::exp(-1.0))) < 0.03,
        "gaps are exponential");
}

}  // namespace

int main() {
  TestPercentile();
  TestHistogramQuantile();
  TestPoissonSchedule();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
