// Fixed-lane log-sum-exp kernels: the max, log-sum-exp and row-softmax
// behind the autodiff RowLogSumExp op (the IWAE bound of the VAE family).
//
// Each reduction makes two vectorized passes over contiguous data — a
// fixed-lane max, then a max-shifted ExpD accumulate — so nothing calls
// scalar libm in the inner loop.
//
// Determinism: lane association is fixed by the span length (see
// kernels/elementwise.h) and every exp goes through the single ExpD
// definition, so results are bit-identical at any thread count as long as
// callers chunk row ranges by shape-derived grains.
#ifndef SCIS_KERNELS_LSE_H_
#define SCIS_KERNELS_LSE_H_

#include <cstddef>

namespace scis::kernels {

// max of v[0..n). Returns -inf for an empty span (n == 0).
double MaxValue(const double* v, size_t n);

// log Σ exp(v[j]), max-shifted. Returns -inf for an empty span — the empty
// sum is 0 and log 0 = -inf — where the historic sinkhorn.cc helper read
// v[0] unguarded (UB). A non-finite max (all -inf, or any +inf/NaN) is
// returned as-is, matching the historic guard.
double LogSumExp(const double* v, size_t n);

// Writes softmax(v) into `softmax[0..n)` and returns log Σ exp(v[j]).
// Empty span: returns -inf, writes nothing.
double SoftmaxRow(const double* v, size_t n, double* softmax);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_LSE_H_
