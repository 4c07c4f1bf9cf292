// Kernel-domain Sinkhorn passes over a dense n×m Gibbs kernel.
//
// The solver (ot/sinkhorn.cc) builds K(i,j) = exp(fs[i] + gs[j] − C(i,j)/λ)
// once per solve, where fs/gs are the log potentials absorbed so far
// (divided by λ; zero unless a scaling left range), then alternates the two
// scaling updates
//
//   v = 1 / Kᵀ(a⊙u)        u = 1 / K(b⊙v)
//
// as matrix–vector passes with no exp, and finally scales K in place into
// the plan P = diag(a⊙u)·K·diag(b⊙v). One ExpD pass per solve replaces the
// four log-sum-exp passes and the plan's exp pass of the log-domain form.
//
// Determinism: every output is a pure function of the problem shape.
//   * GibbsKernelRows and PlanRows are elementwise per row, with fixed-lane
//     row sums (see kernels/elementwise.h).
//   * KernelRowSums reduces each row with the fixed-lane tree.
//   * KernelColumnSums accumulates each output column over the rows in
//     ascending order, one product at a time, whatever column range a
//     caller passes — so any column split gives the same bits.
// Callers split row and column ranges by shape-derived grains and combine
// PlanRows' partial sums in chunk order (runtime::ParallelReduce).
#ifndef SCIS_KERNELS_SINKHORN_KERNELS_H_
#define SCIS_KERNELS_SINKHORN_KERNELS_H_

#include <cstddef>

namespace scis::kernels {

// kernel(i,j) = ExpD(fs[i] + gs[j] − inv_lam·cost(i,j)) for rows [r0, r1)
// of the row-major n×cols matrices.
void GibbsKernelRows(const double* cost, double inv_lam, const double* fs,
                     const double* gs, size_t r0, size_t r1, size_t cols,
                     double* kernel);

// out[j] = Σ_i w[i]·kernel(i,j) over all `rows`, for columns [c0, c1): the
// Kᵀw product, accumulated in row order per column.
void KernelColumnSums(const double* kernel, const double* w, size_t rows,
                      size_t cols, size_t c0, size_t c1, double* out);

// out[i] = Σ_j kernel(i,j)·w[j] for rows [r0, r1): the Kw product.
void KernelRowSums(const double* kernel, const double* w, size_t r0,
                   size_t r1, size_t cols, double* out);

// Plan recovery over rows [r0, r1), in place:
//   plan(i,j) ← su[i]·plan(i,j)·sv[j]     (plan holds K on entry)
// with su = a⊙u and sv = b⊙v. Adds Σ P·cost to *cost_sum and
// Σ_i r_i·alpha[i] + Σ_ij P(i,j)·beta[j] to *log_sum, where r_i = Σ_j P(i,j).
// With alpha[i] = log(a_i u_i) + fs[i] and beta[j] = log(b_j v_j) + gs[j],
//   Σ P log P = *log_sum − Σ P·cost / λ,
// which costs O(n + m) logs in place of one exp per entry.
void PlanRows(const double* cost, const double* su, const double* sv,
              const double* alpha, const double* beta, size_t r0, size_t r1,
              size_t cols, double* plan, double* cost_sum, double* log_sum);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_SINKHORN_KERNELS_H_
