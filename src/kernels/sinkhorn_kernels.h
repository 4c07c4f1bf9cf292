// Kernel-domain Sinkhorn passes over a dense n×m Gibbs kernel, and the
// envelope gradient the solved plan feeds (MaskedGradRows, at the end).
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

// GibbsKernelRows restricted to the upper triangle of a square n×n kernel:
// kernel(i,j) for j ≥ i, rows [r0, r1), with the same expression. When
// fs = gs and the cost is symmetric bit for bit, MirrorUpperRows then
// completes the kernel GibbsKernelRows would build, bit for bit.
void GibbsKernelUpperRows(const double* cost, double inv_lam,
                          const double* fs, const double* gs, size_t r0,
                          size_t r1, size_t n, double* kernel);

// kernel(i,j) = kernel(j,i) for j < i, rows [r0, r1) of a square n×n
// matrix whose upper triangle is complete.
void MirrorUpperRows(double* kernel, size_t r0, size_t r1, size_t n);

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

// Envelope gradient rows of the masked OT cost (ot/masked_cost.cc), before
// the closing MaskedGradFinish step: for output rows i in [r0, r1) of the
// row-major n×d `grad`,
//
//   grad(i,k) = Σ_j (−P(i,j)·mb(j,k))·b(j,k),   j = 0 … m−1,
//
// where P(i,j) = plan[i·row_stride + j·col_stride] and mb, b are m×d. The
// strides let one kernel serve both sides: the A side reads plan rows
// (row_stride = cols, col_stride = 1), the B side reads plan columns in
// place (row_stride = 1, col_stride = cols).
//
// Exactness: each element equals, bit for bit, the scalar loop that starts
// at g = +0.0 and adds `(−P(i,j)·mb(j,k))·b(j,k)` for ascending j, skipping
// P(i,j) == 0 (tests/kernels_test.cc keeps it as the reference).
//   * Order kept: a register tile of up to 4 rows × 12 coordinates shares
//     each loaded mb/b row, but every accumulator still takes its own terms
//     one at a time in ascending j, with the same two multiplies.
//   * +0.0 masking: where P(i,j) == 0 the term is replaced by +0.0 (a
//     select, so ±inf or NaN in b there never reaches the sum). Adding +0.0
//     leaves every value but −0.0 unchanged, and an accumulator that starts
//     at +0.0 can never become −0.0 (x + y is −0.0 only when both are).
//   * A row's arithmetic does not depend on the tile it lands in, so any
//     split of [r0, r1) gives the same bits.
// The row totals Σ_j P(i,j) are kernels::Sum over a plan row on the A side
// and kernels::ColumnSums over a plan column on the B side (same lane
// association, so the B side's totals match a transposed row's bits).
void MaskedGradRows(const double* plan, size_t row_stride, size_t col_stride,
                    const double* mb, const double* b, size_t m, size_t d,
                    size_t r0, size_t r1, double* grad);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_SINKHORN_KERNELS_H_
