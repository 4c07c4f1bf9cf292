#include "kernels/elementwise.h"

#include <cmath>

#include "kernels/act.h"
#include "kernels/dispatch.h"

#include "kernels/exp.h"
#include "kernels/lane_reduce.h"

namespace scis::kernels {

using internal::LaneSum;

// The reduction loops all follow the same shape: a main loop that feeds
// kLanes accumulators in lockstep (the form the auto-vectorizer turns into
// vector accumulators), then a tail that drops the remaining r < kLanes
// elements into lanes 0..r-1. Both parts depend only on n.

SCIS_KERNEL_CLONES
double Sum(const double* __restrict v, size_t n) {
  double acc[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) acc[l] += v[i + l];
  }
  for (size_t l = 0; i < n; ++i, ++l) acc[l] += v[i];
  return LaneSum(acc);
}

SCIS_KERNEL_CLONES
void ColumnSums(const double* __restrict mat, size_t rows, size_t cols,
                size_t c0, size_t c1, double* __restrict out) {
  // Blocks of kBlock columns; acc[l] holds lane l of every column in the
  // block, fed row by row in ascending order like Sum's lanes.
  constexpr size_t kBlock = 4;
  for (size_t c = c0; c < c1; c += kBlock) {
    const size_t w = c1 - c < kBlock ? c1 - c : kBlock;
    double acc[kLanes][kBlock] = {};
    size_t i = 0;
    for (; i + kLanes <= rows; i += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) {
        const double* __restrict row = mat + (i + l) * cols + c;
        for (size_t t = 0; t < w; ++t) acc[l][t] += row[t];
      }
    }
    for (size_t l = 0; i < rows; ++i, ++l) {
      const double* __restrict row = mat + i * cols + c;
      for (size_t t = 0; t < w; ++t) acc[l][t] += row[t];
    }
    for (size_t t = 0; t < w; ++t) {
      double lanes[kLanes];
      for (size_t l = 0; l < kLanes; ++l) lanes[l] = acc[l][t];
      out[c + t] = LaneSum(lanes);
    }
  }
}

SCIS_KERNEL_CLONES
double Dot(const double* __restrict a, const double* __restrict b, size_t n) {
  double acc[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  for (size_t l = 0; i < n; ++i, ++l) acc[l] += a[i] * b[i];
  return LaneSum(acc);
}

SCIS_KERNEL_CLONES
double SquaredNorm(const double* __restrict v, size_t n) {
  double acc[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) acc[l] += v[i + l] * v[i + l];
  }
  for (size_t l = 0; i < n; ++i, ++l) acc[l] += v[i] * v[i];
  return LaneSum(acc);
}

SCIS_KERNEL_CLONES
void Axpy(double alpha, const double* __restrict x, double* __restrict y,
          size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

SCIS_KERNEL_CLONES
void ScaleInPlace(double* __restrict v, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] *= s;
}

SCIS_KERNEL_CLONES
void ExpArray(const double* __restrict in, double* __restrict out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = ExpD(in[i]);
}

SCIS_KERNEL_CLONES
void SigmoidArray(const double* __restrict in, double* __restrict out,
                  size_t n) {
  // The scalar form lives in kernels/act.h so the fused layer's activation
  // pass evaluates the exact same expressions.
  for (size_t i = 0; i < n; ++i) out[i] = SigmoidD(in[i]);
}

SCIS_KERNEL_CLONES
void ActInPlace(Act act, double* __restrict y, size_t n) {
  // One straight loop per kind: sigmoid and relu vectorize here (this file
  // has the dynamic cost model); tanh stays a libm call per element.
  switch (act) {
    case Act::kIdentity:
      break;
    case Act::kSigmoid:
      for (size_t i = 0; i < n; ++i) y[i] = SigmoidD(y[i]);
      break;
    case Act::kRelu:
      for (size_t i = 0; i < n; ++i) y[i] = y[i] > 0 ? y[i] : 0.0;
      break;
    case Act::kTanh:
      for (size_t i = 0; i < n; ++i) y[i] = std::tanh(y[i]);
      break;
  }
}

SCIS_KERNEL_CLONES
void ActBackwardArray(Act act, const double* __restrict g,
                      const double* __restrict y, double* __restrict dz,
                      size_t n) {
  // Per-element grouping mirrors the historic unfused backward: the local
  // derivative d is formed first, then multiplied by the incoming gradient.
  switch (act) {
    case Act::kIdentity:
      for (size_t i = 0; i < n; ++i) dz[i] = g[i];
      break;
    case Act::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        const double d = y[i] * (1.0 - y[i]);
        dz[i] = g[i] * d;
      }
      break;
    case Act::kRelu:
      for (size_t i = 0; i < n; ++i) {
        dz[i] = g[i] * (y[i] > 0 ? 1.0 : 0.0);
      }
      break;
    case Act::kTanh:
      for (size_t i = 0; i < n; ++i) {
        const double d = 1.0 - y[i] * y[i];
        dz[i] = g[i] * d;
      }
      break;
  }
}

SCIS_KERNEL_CLONES
void ColSumAcc(const double* __restrict a, size_t rows, size_t cols,
               double* __restrict out) {
  for (size_t i = 0; i < rows; ++i) {
    const double* __restrict row = a + i * cols;
    for (size_t j = 0; j < cols; ++j) out[j] += row[j];
  }
}

SCIS_KERNEL_CLONES
void AdamUpdate(double* __restrict p, double* __restrict m,
                double* __restrict v, const double* __restrict g, size_t n,
                double beta1, double beta2, double bc1, double bc2, double lr,
                double eps) {
  // Statement-for-statement the historic Adam::Step inner loop; fusing the
  // moment updates and the parameter write into one pass is a memory-traffic
  // optimization only (no cross-element dependence, so bits are unchanged).
  for (size_t k = 0; k < n; ++k) {
    m[k] = beta1 * m[k] + (1.0 - beta1) * g[k];
    v[k] = beta2 * v[k] + (1.0 - beta2) * g[k] * g[k];
    const double mhat = m[k] / bc1;
    const double vhat = v[k] / bc2;
    p[k] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

SCIS_KERNEL_CLONES
void AdamUpdateZeroGrad(double* __restrict p, double* __restrict m,
                        double* __restrict v, size_t n, double beta1,
                        double beta2, double bc1, double bc2, double lr,
                        double eps) {
  // g == 0 path. `+ 0.0` is kept because it normalizes -0 moments to +0,
  // exactly as feeding a zero gradient matrix through AdamUpdate would.
  for (size_t k = 0; k < n; ++k) {
    m[k] = beta1 * m[k] + 0.0;
    v[k] = beta2 * v[k] + 0.0;
    const double mhat = m[k] / bc1;
    const double vhat = v[k] / bc2;
    p[k] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

SCIS_KERNEL_CLONES
void SgdMomentumUpdate(double* __restrict p, double* __restrict vel,
                       const double* __restrict g, size_t n, double momentum,
                       double lr) {
  // Mirrors the historic three-pass Sgd::Step (scale, axpy grad, axpy vel);
  // the per-element statements keep the same grouping.
  for (size_t k = 0; k < n; ++k) {
    vel[k] *= momentum;
    vel[k] += 1.0 * g[k];
    p[k] += -lr * vel[k];
  }
}

SCIS_KERNEL_CLONES
void SgdMomentumUpdateZeroGrad(double* __restrict p, double* __restrict vel,
                               size_t n, double momentum, double lr) {
  for (size_t k = 0; k < n; ++k) {
    vel[k] *= momentum;
    vel[k] += 0.0;  // normalizes a -0 velocity to +0, as a zero grad would
    p[k] += -lr * vel[k];
  }
}

SCIS_KERNEL_CLONES
double WeightedSse(const double* __restrict w, const double* __restrict p,
                   const double* __restrict y, size_t n) {
  double acc[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double d = p[i + l] - y[i + l];
      acc[l] += w[i + l] * d * d;
    }
  }
  for (size_t l = 0; i < n; ++i, ++l) {
    const double d = p[i] - y[i];
    acc[l] += w[i] * d * d;
  }
  return LaneSum(acc);
}

SCIS_KERNEL_CLONES
void WeightedDiff(const double* __restrict w, const double* __restrict p,
                  const double* __restrict y, double s, double* __restrict out,
                  size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = s * w[i] * (p[i] - y[i]);
}

SCIS_KERNEL_CLONES
void MaskedGradFinish(const double* __restrict m, const double* __restrict a,
                      double prow, double* __restrict g, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    g[k] = 2.0 * m[k] * (prow * m[k] * a[k] + g[k]);
  }
}

}  // namespace scis::kernels
