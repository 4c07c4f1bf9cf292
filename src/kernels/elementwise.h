// Fixed-lane elementwise and reduction kernels over contiguous spans.
//
// Every reduction here accumulates into kLanes independent partial sums
// (lane l takes elements l, l+kLanes, l+2·kLanes, …) and combines them with
// a fixed pairwise tree. The association therefore depends only on the span
// length — never on the thread count or on how a caller chunks the range —
// which is what lets these loops vectorize while preserving the runtime
// determinism contract (see runtime/parallel_for.h). Callers that split a
// range across threads must split at positions derived only from the
// problem shape; the per-chunk partials then combine in chunk order exactly
// as ParallelReduce prescribes.
//
// Implementations live in elementwise.cc, which is compiled with the
// kernel-only vectorization flags (see src/kernels/CMakeLists.txt); keeping
// them out of line also guarantees a single definition of each loop, so
// results cannot depend on which translation unit invoked a kernel.
#ifndef SCIS_KERNELS_ELEMENTWISE_H_
#define SCIS_KERNELS_ELEMENTWISE_H_

#include <cstddef>

#include "kernels/act.h"

namespace scis::kernels {

// Lane count for every fixed-lane reduction in src/kernels. 8 doubles = one
// 512-bit vector, or 2/4 accumulator registers at 128/256-bit ISAs — enough
// independent chains to hide FP add latency on any of them.
inline constexpr size_t kLanes = 8;

// Σ v[i]. Fixed-lane association (see file comment).
double Sum(const double* v, size_t n);

// out[c] = Σ_i mat(i,c) over the `rows` rows of the row-major rows×cols
// `mat`, for columns [c0, c1). Each column is associated exactly as Sum
// associates a contiguous span (lane = i mod kLanes, then the lane tree), so
// out[c] equals Sum over a copy of column c bit for bit, whatever column
// range a caller passes.
void ColumnSums(const double* mat, size_t rows, size_t cols, size_t c0,
                size_t c1, double* out);

// Σ a[i]·b[i].
double Dot(const double* a, const double* b, size_t n);

// Σ v[i]².
double SquaredNorm(const double* v, size_t n);

// y[i] += alpha · x[i].
void Axpy(double alpha, const double* x, double* y, size_t n);

// v[i] *= s.
void ScaleInPlace(double* v, double s, size_t n);

// out[i] = ExpD(in[i])  (vectorized exp; see kernels/exp.h for accuracy).
void ExpArray(const double* in, double* out, size_t n);

// out[i] = sigmoid(in[i]), computed with the same sign-split as the scalar
// form (1/(1+e^-x) for x ≥ 0, e^x/(1+e^x) otherwise) but branch-free.
void SigmoidArray(const double* in, double* out, size_t n);

// y[i] = act(y[i]) in place — the activation half of a fused linear layer,
// run over the output rows the product kernel (kernels/linear.h) just
// wrote. Sigmoid is SigmoidD (kernels/act.h), relu `y > 0 ? y : 0`, tanh
// std::tanh; kIdentity leaves y untouched.
void ActInPlace(Act act, double* y, size_t n);

// dz[i] = g[i] · act'(y[i]) where y is the saved forward output — the
// activation backward for every Act (kIdentity copies g).
void ActBackwardArray(Act act, const double* g, const double* y, double* dz,
                      size_t n);

// out[j] += Σ_i a(i, j) over all rows, row-major a (rows × cols), serial in
// row order — the bias gradient, association-identical to ColSum.
void ColSumAcc(const double* a, size_t rows, size_t cols, double* out);

// Σ w[i]·(p[i] − y[i])²  — the fused weighted-SSE forward pass.
double WeightedSse(const double* w, const double* p, const double* y,
                   size_t n);

// out[i] = s · w[i] · (p[i] − y[i])  — the matching gradient pass.
void WeightedDiff(const double* w, const double* p, const double* y, double s,
                  double* out, size_t n);

// g[k] = 2·m[k]·(prow·m[k]·a[k] + g[k])  — the closing step of the masked
// OT gradient (ot/masked_cost.cc), fused so the row is finished in one pass.
void MaskedGradFinish(const double* m, const double* a, double prow, double* g,
                      size_t n);

// Optimizer inner loops (nn/optimizer.cc), fused to one pass per parameter
// tensor. Bit-identical to the historic matrix-at-a-time updates; the
// ZeroGrad variants replicate feeding an all-zero gradient (the `+ 0.0`
// normalizes -0 state exactly as the old code did).
void AdamUpdate(double* p, double* m, double* v, const double* g, size_t n,
                double beta1, double beta2, double bc1, double bc2, double lr,
                double eps);
void AdamUpdateZeroGrad(double* p, double* m, double* v, size_t n,
                        double beta1, double beta2, double bc1, double bc2,
                        double lr, double eps);
void SgdMomentumUpdate(double* p, double* vel, const double* g, size_t n,
                       double momentum, double lr);
void SgdMomentumUpdateZeroGrad(double* p, double* vel, size_t n,
                               double momentum, double lr);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_ELEMENTWISE_H_
