#include "kernels/masked_distance.h"

#include <limits>

#include "kernels/dispatch.h"

namespace scis::kernels {

double MaskedRowDistance(const double* xa, const double* ma, const double* xb,
                         const double* mb, size_t d) {
  double acc = 0.0;
  double overlap = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = ma[j] * mb[j];  // 1 iff co-observed
    const double diff = xa[j] - xb[j];
    acc += w * diff * diff;
    overlap += w;
  }
  if (overlap == 0.0) return std::numeric_limits<double>::infinity();
  return acc / overlap;
}

// The two loops below carry no cross-element dependence, so the vectorizer
// maps rows to lanes without reassociating any row's sum (see the header).

SCIS_KERNEL_CLONES
void MaskedDistanceAccumulate(double q, const double* __restrict x,
                              const double* __restrict w, size_t n,
                              double* __restrict acc, double* __restrict cnt) {
  for (size_t i = 0; i < n; ++i) {
    const double diff = q - x[i];
    acc[i] += w[i] * diff * diff;
    cnt[i] += w[i];
  }
}

SCIS_KERNEL_CLONES
void MaskedDistanceFinish(const double* __restrict acc,
                          const double* __restrict cnt, size_t n,
                          double* __restrict dist) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    dist[i] = cnt[i] == 0.0 ? kInf : acc[i] / cnt[i];
  }
}

void MaskedDistanceScatter(double q, const uint8_t* __restrict pos,
                           const double* __restrict x, size_t n,
                           double* __restrict acc, double* __restrict cnt) {
  for (size_t e = 0; e < n; ++e) {
    const double diff = q - x[e];
    acc[pos[e]] += diff * diff;
    cnt[pos[e]] += 1.0;
  }
}

double MaskedRowToDenseDistance(const double* xa, const double* ma,
                                const double* c, size_t d) {
  double acc = 0.0;
  double observed = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = ma[j];
    const double diff = xa[j] - c[j];
    acc += w * diff * diff;
    observed += w;
  }
  if (observed == 0.0) return std::numeric_limits<double>::infinity();
  return acc / observed;
}

}  // namespace scis::kernels
