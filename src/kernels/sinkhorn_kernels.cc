#include "kernels/sinkhorn_kernels.h"

#include "kernels/dispatch.h"
#include "kernels/elementwise.h"
#include "kernels/exp.h"
#include "kernels/lane_reduce.h"

namespace scis::kernels {

using internal::LaneSum;

SCIS_KERNEL_CLONES
void GibbsKernelRows(const double* __restrict cost, double inv_lam,
                     const double* __restrict fs, const double* __restrict gs,
                     size_t r0, size_t r1, size_t cols,
                     double* __restrict kernel) {
  for (size_t i = r0; i < r1; ++i) {
    const double* __restrict crow = cost + i * cols;
    double* __restrict krow = kernel + i * cols;
    const double fi = fs[i];
    for (size_t j = 0; j < cols; ++j) {
      krow[j] = ExpD(fi + gs[j] - inv_lam * crow[j]);
    }
  }
}

SCIS_KERNEL_CLONES
void KernelColumnSums(const double* __restrict kernel,
                      const double* __restrict w, size_t rows, size_t cols,
                      size_t c0, size_t c1, double* __restrict out) {
  for (size_t j = c0; j < c1; ++j) out[j] = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    const double* __restrict krow = kernel + i * cols;
    const double wi = w[i];
    for (size_t j = c0; j < c1; ++j) out[j] += wi * krow[j];
  }
}

SCIS_KERNEL_CLONES
void KernelRowSums(const double* __restrict kernel, const double* __restrict w,
                   size_t r0, size_t r1, size_t cols,
                   double* __restrict out) {
  for (size_t i = r0; i < r1; ++i) {
    const double* __restrict krow = kernel + i * cols;
    double acc[kLanes] = {};
    size_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) acc[l] += krow[j + l] * w[j + l];
    }
    for (size_t l = 0; j < cols; ++j, ++l) acc[l] += krow[j] * w[j];
    out[i] = LaneSum(acc);
  }
}

SCIS_KERNEL_CLONES
void PlanRows(const double* __restrict cost, const double* __restrict su,
              const double* __restrict sv, const double* __restrict alpha,
              const double* __restrict beta, size_t r0, size_t r1,
              size_t cols, double* __restrict plan, double* cost_sum,
              double* log_sum) {
  double csum = *cost_sum;
  double lsum = *log_sum;
  for (size_t i = r0; i < r1; ++i) {
    const double* __restrict crow = cost + i * cols;
    double* __restrict prow = plan + i * cols;
    const double si = su[i];
    double cacc[kLanes] = {};
    double racc[kLanes] = {};
    double bacc[kLanes] = {};
    size_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) {
        const double p = si * prow[j + l] * sv[j + l];
        prow[j + l] = p;
        cacc[l] += p * crow[j + l];
        racc[l] += p;
        bacc[l] += p * beta[j + l];
      }
    }
    for (size_t l = 0; j < cols; ++j, ++l) {
      const double p = si * prow[j] * sv[j];
      prow[j] = p;
      cacc[l] += p * crow[j];
      racc[l] += p;
      bacc[l] += p * beta[j];
    }
    csum += LaneSum(cacc);
    lsum += LaneSum(racc) * alpha[i] + LaneSum(bacc);
  }
  *cost_sum = csum;
  *log_sum = lsum;
}

}  // namespace scis::kernels
