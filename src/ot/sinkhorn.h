// Entropy-regularized optimal transport via Sinkhorn's algorithm.
//
// Solves  min_{P ∈ Γ(a,b)} <P, C> + λ Σ_ij P_ij log P_ij   (Def. 3)
// using log-domain (stabilized) Sinkhorn iterations, so small λ does not
// underflow. The entropy convention matches the paper's Example 1: plain
// entropy Σ P log P, not KL against the product measure (the two differ by
// a constant given the marginals).
//
// The solver is dense and exact: O(n·m) per iteration over the
// materialized cost matrix. DIM solves 128-row minibatches, where a
// sub-quadratic approximation has nothing to win.
#ifndef SCIS_OT_SINKHORN_H_
#define SCIS_OT_SINKHORN_H_

#include <vector>

#include "common/status.h"
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
  std::vector<double> f;    // dual potential over rows
  std::vector<double> g;    // dual potential over cols
  int iters = 0;            // iterations actually run
  bool converged = false;
};

// Uniform-marginal solve: a_i = 1/n, b_j = 1/m.
SinkhornSolution SolveSinkhorn(const Matrix& cost,
                               const SinkhornOptions& opts);

// General marginals. `a` has cost.rows() entries, `b` cost.cols(); both
// must be strictly positive, finite, and sum to 1 (within 1e-6 relative) —
// violations return InvalidArgument instead of silently iterating on a
// non-measure.
Result<SinkhornSolution> SolveSinkhornWeighted(const Matrix& cost,
                                               const std::vector<double>& a,
                                               const std::vector<double>& b,
                                               const SinkhornOptions& opts);

// Masked OT entry point: solves OT_λ over the Def.-2 masking cost between
// (a, ma) and (b, mb) with uniform marginals — exactly
// SolveSinkhorn(MaskedCostMatrix(a, ma, b, mb), opts).
SinkhornSolution SolveSinkhornMasked(const Matrix& a, const Matrix& ma,
                                     const Matrix& b, const Matrix& mb,
                                     const SinkhornOptions& opts);

}  // namespace scis

#endif  // SCIS_OT_SINKHORN_H_
