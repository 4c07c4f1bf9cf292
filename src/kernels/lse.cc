#include "kernels/lse.h"

#include "kernels/dispatch.h"

#include <cmath>
#include <limits>

#include "kernels/elementwise.h"
#include "kernels/exp.h"
#include "kernels/lane_reduce.h"

namespace scis::kernels {

using internal::LaneMax;
using internal::LaneSum;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

SCIS_KERNEL_CLONES
double MaxValue(const double* __restrict v, size_t n) {
  double acc[kLanes];
  for (size_t l = 0; l < kLanes; ++l) acc[l] = kNegInf;
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      acc[l] = acc[l] > v[i + l] ? acc[l] : v[i + l];
    }
  }
  for (size_t l = 0; i < n; ++i, ++l) acc[l] = acc[l] > v[i] ? acc[l] : v[i];
  return LaneMax(acc);
}

SCIS_KERNEL_CLONES
double LogSumExp(const double* __restrict v, size_t n) {
  const double mx = MaxValue(v, n);  // -inf when n == 0
  if (!std::isfinite(mx)) return mx;
  double acc[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) acc[l] += ExpD(v[i + l] - mx);
  }
  for (size_t l = 0; i < n; ++i, ++l) acc[l] += ExpD(v[i] - mx);
  return mx + std::log(LaneSum(acc));
}

SCIS_KERNEL_CLONES
double SoftmaxRow(const double* __restrict v, size_t n,
                  double* __restrict softmax) {
  if (n == 0) return kNegInf;
  const double mx = MaxValue(v, n);
  double acc[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double e = ExpD(v[i + l] - mx);
      softmax[i + l] = e;
      acc[l] += e;
    }
  }
  for (size_t l = 0; i < n; ++i, ++l) {
    const double e = ExpD(v[i] - mx);
    softmax[i] = e;
    acc[l] += e;
  }
  const double sum = LaneSum(acc);
  ScaleInPlace(softmax, 1.0 / sum, n);
  return mx + std::log(sum);
}

}  // namespace scis::kernels
