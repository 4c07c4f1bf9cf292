// Entropy-regularized optimal transport via Sinkhorn's algorithm.
//
// Solves  min_{P ∈ Γ(a,b)} <P, C> + λ Σ_ij P_ij log P_ij   (Def. 3)
// in the kernel domain: one exp pass builds the Gibbs kernel
// K = exp(−C/λ), each iteration is the two matrix–vector scaling updates
// v = 1/Kᵀ(a⊙u), u = 1/K(b⊙v), and the plan P = diag(a⊙u)·K·diag(b⊙v) is
// K scaled in place. At the DIM weight λ = 130 with costs of at most d, K
// lies in [exp(−d/λ), 1] and nothing more is needed.
//
// Small λ stays stable by absorption (Schmitzer 2019): when a scaling
// leaves a fixed range, or a mat-vec sum underflows, the scalings are
// folded into log potentials and K is rebuilt around them, so no entry the
// plan needs can underflow. Absorptions are counted in the
// `sinkhorn.absorptions` metric. The entropy convention matches the
// paper's Example 1: plain entropy Σ P log P, not KL against the product
// measure (the two differ by a constant given the marginals).
//
// The solver is dense and exact: O(n·m) per iteration over the
// materialized cost matrix. DIM solves 128-row minibatches, where a
// sub-quadratic approximation has nothing to win.
#ifndef SCIS_OT_SINKHORN_H_
#define SCIS_OT_SINKHORN_H_

#include <vector>

#include "tensor/matrix.h"

namespace scis {

struct SinkhornOptions {
  double lambda = 1.0;   // entropic regularization weight λ (> 0)
  int max_iters = 300;   // cap on Sinkhorn iterations
  // Convergence: sup-norm movement of the row potential per iteration,
  // relative to λ. Small potential movement implies small marginal
  // violation (and is O(n) to track instead of O(n·m)).
  double tol = 1e-9;
};

struct SinkhornSolution {
  Matrix plan;              // optimal transport plan P* (n x m)
  double transport_cost;    // <P*, C>
  double reg_value;         // <P*, C> + λ Σ P log P  (the OT_λ value)
  // Dual potentials, P_ij = a_i b_j exp((f_i + g_j − C_ij)/λ).
  std::vector<double> f;    // over rows
  std::vector<double> g;    // over cols
  int iters = 0;            // iterations actually run
  bool converged = false;
};

// Uniform-marginal solve: a_i = 1/n, b_j = 1/m.
SinkhornSolution SolveSinkhorn(const Matrix& cost,
                               const SinkhornOptions& opts);

// Self solve: OT_λ(points, points) with uniform marginals — exactly
// SolveSinkhorn(PairwiseSquaredDistances(points, points), opts), bit for
// bit. The cost is symmetric by construction (see tensor/matrix_ops.h) and
// nothing is absorbed before the first kernel build, so that build
// computes one triangle of K and mirrors it; a rebuild after an absorption
// builds the full kernel. The cost build is one `ot.masked_cost` span.
SinkhornSolution SolveSinkhornSelf(const Matrix& points,
                                   const SinkhornOptions& opts);

// Masked OT entry point: solves OT_λ over the Def.-2 masking cost between
// (a, ma) and (b, mb) with uniform marginals — exactly
// SolveSinkhorn(MaskedCostMatrix(a, ma, b, mb), opts).
SinkhornSolution SolveSinkhornMasked(const Matrix& a, const Matrix& ma,
                                     const Matrix& b, const Matrix& mb,
                                     const SinkhornOptions& opts);

}  // namespace scis

#endif  // SCIS_OT_SINKHORN_H_
