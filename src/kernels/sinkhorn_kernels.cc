#include "kernels/sinkhorn_kernels.h"

#include <algorithm>

#include "kernels/dispatch.h"
#include "kernels/elementwise.h"
#include "kernels/exp.h"
#include "kernels/lane_reduce.h"

namespace scis::kernels {

using internal::LaneSum;

namespace {

// Four doubles: one AVX2 register, a pair of SSE2 registers in the default
// clone. The plain `double` instantiations below serve d < 4.
typedef double V4 __attribute__((vector_size(32)));

template <typename V>
constexpr size_t kWidth = sizeof(V) / sizeof(double);

// Out-parameters rather than V4 returns: a V4 passed by value would change
// the ABI between the clones (-Wpsabi).
template <typename V>
__attribute__((always_inline)) inline void LoadV(V& v, const double* p) {
  __builtin_memcpy(&v, p, sizeof v);
}

template <typename V>
__attribute__((always_inline)) inline void StoreV(double* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof v);
}

template <typename V>
__attribute__((always_inline)) inline void SplatV(V& v, double s) {
  if constexpr (kWidth<V> == 1) {
    v = s;
  } else {
    v = V{s, s, s, s};
  }
}

// One pass over j for R gradient rows starting at i and C chunks of
// kWidth<V> coordinates (chunk c starts at off[c]). The accumulators stay in
// registers; each takes (−P(i,j)·mb(j,k))·b(j,k) in ascending j, or +0.0
// where P(i,j) == 0 (see the header for why that keeps the bits).
template <typename V, size_t R, size_t C>
__attribute__((always_inline)) inline void MaskedGradPass(
    const double* __restrict plan, size_t rs, size_t cs,
    const double* __restrict mb, const double* __restrict b, size_t m,
    size_t d, const size_t* off, size_t i, double* __restrict grad) {
  V acc[R][C] = {};
  const double* pj = plan + i * rs;
  for (size_t j = 0; j < m; ++j, pj += cs) {
    const double* __restrict mbj = mb + j * d;
    const double* __restrict bj = b + j * d;
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      V p;
      SplatV(p, pj[r * rs]);
      const V np = -p;
      // A lane-wise select (compare mask and AND), not a branch, which
      // would keep the tile out of registers.
      const auto keep = np != V{};
#pragma GCC unroll 4
      for (size_t c = 0; c < C; ++c) {
        V x, y;
        LoadV(x, mbj + off[c]);
        LoadV(y, bj + off[c]);
        const V t = np * x * y;
        acc[r][c] += keep ? t : V{};
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (size_t c = 0; c < C; ++c) {
      StoreV(grad + (i + r) * d + off[c], acc[r][c]);
    }
  }
}

// Chunk c covers coordinates [off, off + kWidth<V>) with off = min(c·w,
// d − w): the last chunk overlaps its neighbour when w does not divide d,
// and the shared coordinates get the same bits from both.
template <typename V, size_t R>
__attribute__((always_inline)) inline void MaskedGradTile(
    const double* __restrict plan, size_t rs, size_t cs,
    const double* __restrict mb, const double* __restrict b, size_t m,
    size_t d, size_t i, double* __restrict grad) {
  constexpr size_t w = kWidth<V>;
  constexpr size_t kMaxChunks = 3;
  const size_t chunks = (d + w - 1) / w;
  for (size_t c0 = 0; c0 < chunks; c0 += kMaxChunks) {
    size_t off[kMaxChunks];
    const size_t n = std::min(kMaxChunks, chunks - c0);
    for (size_t c = 0; c < n; ++c) off[c] = std::min((c0 + c) * w, d - w);
    switch (n) {
      case 3:
        MaskedGradPass<V, R, 3>(plan, rs, cs, mb, b, m, d, off, i, grad);
        break;
      case 2:
        MaskedGradPass<V, R, 2>(plan, rs, cs, mb, b, m, d, off, i, grad);
        break;
      default:
        MaskedGradPass<V, R, 1>(plan, rs, cs, mb, b, m, d, off, i, grad);
        break;
    }
  }
}

template <typename V>
__attribute__((always_inline)) inline void MaskedGradRowsOf(
    const double* __restrict plan, size_t rs, size_t cs,
    const double* __restrict mb, const double* __restrict b, size_t m,
    size_t d, size_t r0, size_t r1, double* __restrict grad) {
  constexpr size_t kRowTile = 4;
  size_t i = r0;
  for (; i + kRowTile <= r1; i += kRowTile) {
    MaskedGradTile<V, kRowTile>(plan, rs, cs, mb, b, m, d, i, grad);
  }
  for (; i < r1; ++i) MaskedGradTile<V, 1>(plan, rs, cs, mb, b, m, d, i, grad);
}

// krow[j] = ExpD(fi + gs[j] − inv_lam·crow[j]) for j in [j0, j1): the one
// expression every Gibbs kernel entry is built from.
__attribute__((always_inline)) inline void GibbsRow(
    const double* __restrict crow, double fi, const double* __restrict gs,
    double inv_lam, size_t j0, size_t j1, double* __restrict krow) {
  for (size_t j = j0; j < j1; ++j) {
    krow[j] = ExpD(fi + gs[j] - inv_lam * crow[j]);
  }
}

}  // namespace

SCIS_KERNEL_CLONES
void GibbsKernelRows(const double* __restrict cost, double inv_lam,
                     const double* __restrict fs, const double* __restrict gs,
                     size_t r0, size_t r1, size_t cols,
                     double* __restrict kernel) {
  for (size_t i = r0; i < r1; ++i) {
    GibbsRow(cost + i * cols, fs[i], gs, inv_lam, 0, cols,
             kernel + i * cols);
  }
}

SCIS_KERNEL_CLONES
void GibbsKernelUpperRows(const double* __restrict cost, double inv_lam,
                          const double* __restrict fs,
                          const double* __restrict gs, size_t r0, size_t r1,
                          size_t n, double* __restrict kernel) {
  for (size_t i = r0; i < r1; ++i) {
    GibbsRow(cost + i * n, fs[i], gs, inv_lam, i, n, kernel + i * n);
  }
}

void MirrorUpperRows(double* kernel, size_t r0, size_t r1, size_t n) {
  for (size_t i = r0; i < r1; ++i) {
    double* krow = kernel + i * n;
    for (size_t j = 0; j < i; ++j) krow[j] = kernel[j * n + i];
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

SCIS_KERNEL_CLONES
void MaskedGradRows(const double* __restrict plan, size_t row_stride,
                    size_t col_stride, const double* __restrict mb,
                    const double* __restrict b, size_t m, size_t d, size_t r0,
                    size_t r1, double* __restrict grad) {
  if (d >= kWidth<V4>) {
    MaskedGradRowsOf<V4>(plan, row_stride, col_stride, mb, b, m, d, r0, r1,
                         grad);
  } else {
    MaskedGradRowsOf<double>(plan, row_stride, col_stride, mb, b, m, d, r0,
                             r1, grad);
  }
}

}  // namespace scis::kernels
