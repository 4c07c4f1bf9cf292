// Slow reference oracles for differential testing. Each oracle is an
// independent, deliberately naive implementation of math the production
// code optimizes (blocked/parallel kernels, fused log-domain
// Sinkhorn, analytic Prop.-1 gradients, Hutchinson-probed curvature), so a
// bug has to appear in two unrelated implementations to slip through.
// Oracles are serial and unoptimized; keep instances tiny.
#ifndef SCIS_TESTKIT_ORACLES_H_
#define SCIS_TESTKIT_ORACLES_H_

#include <utility>
#include <vector>

#include "core/dim.h"
#include "core/sse.h"
#include "models/imputer.h"
#include "tensor/matrix.h"

namespace scis::testkit {

// Schoolbook O(n³) matmul: serial triple loop, no blocking, accumulation in
// plain left-to-right order.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b);

// Definition-2 masking cost written directly from the formula:
// C[i][j] = || ma_i ⊙ a_i − mb_j ⊙ b_j ||².
Matrix NaiveMaskedCost(const Matrix& a, const Matrix& ma, const Matrix& b,
                       const Matrix& mb);

// Mask-aware k-nearest-neighbour oracle over the rows of (x, mask):
// distance = mean squared difference over co-observed coordinates, rows
// with no co-observed coordinate excluded, results ascending by
// (distance, row). Direct nested loops with a full sort — independent of
// both kernels/masked_distance and index/ann_index, which the production
// searches share.
std::vector<std::pair<size_t, double>> NaiveMaskedKnn(
    const Matrix& x, const Matrix& mask, const double* query,
    const double* query_mask, size_t k,
    size_t exclude = static_cast<size_t>(-1));

struct OtOracle {
  Matrix plan;                  // optimal P*
  double transport_cost = 0.0;  // <P*, C>
  double reg_value = 0.0;       // <P*, C> + λ Σ P log P (production convention)
  int iters = 0;
  bool converged = false;
};

// Entropic OT with uniform marginals via the textbook log-domain fixed
// point φ_i = log aᵢ − LSE_j(ψ_j − C_ij/λ), iterated to ~machine precision.
// No warm start, no early exit heuristics.
OtOracle SolveEntropicOtOracle(const Matrix& cost, double lambda,
                               int max_iters = 20000, double tol = 1e-13);

// MS divergence (Def. 4) assembled from three oracle OT solves over naive
// masked costs: 2·OT(x̄,x) − OT(x̄,x̄) − OT(x,x).
double OracleMsDivergence(const Matrix& xbar, const Matrix& x, const Matrix& m,
                          double lambda);

// Central-difference gradient of the DIM evaluation loss
// (DimTrainer::EvalLoss: MsLoss through the generator) with respect to the
// flattened generator parameters. EvalLoss omits the constant
// OT_λ^m(X, X)/(2n); central differences cancel it, so this is also the
// gradient of the full MS divergence / (2n). O(P) loss evaluations — tiny
// models only.
std::vector<double> NumericDimLossGrad(GenerativeImputer& model,
                                       const DimOptions& opts, const Matrix& x,
                                       const Matrix& m, double h = 1e-5);

// Exact dense masked Gauss–Newton matrix (Theorem 1's H):
//   H = (1/n) Σ_{observed cells c} (∂x̄_c/∂θ)(∂x̄_c/∂θ)ᵀ
// computed with one backward pass per observed cell (O(cells·P) — tiny
// models only). This is the expectation the production Hutchinson probe
// estimates (sse.cc Prepare), before its ridge floor.
Matrix DenseGaussNewton(GenerativeImputer& model, const Dataset& data);

// Diagonal of DenseGaussNewton without forming the P×P matrix.
std::vector<double> DenseGaussNewtonDiag(GenerativeImputer& model,
                                         const Dataset& data);

// SSE's empirical P(D(θ_n, θ_N) ≤ ε) (SseEstimator::ProbabilityAt) under
// Theorem 1's full law θ_n | θ0 ~ N(θ0, η(n)·H⁻¹) rather than production's
// Hutchinson diagonal: H is DenseGaussNewton(model, curvature_data) plus the
// production ridge floor max(mean diag·1e-3, 1e-12) on its diagonal,
// factored H = LLᵀ so that x = L⁻ᵀz has Cov(x) = H⁻¹. The k pairs draw z
// from Rng(opts.seed); Eq. 4 is summed in a plain loop over the validation
// set's observed cells. Uses opts' epsilon, k, lambda, eta_scale and seed;
// restores θ0. O(P³) — tiny models only.
double FullCovarianceProbability(GenerativeImputer& model,
                                 const Dataset& curvature_data,
                                 const Dataset& validation,
                                 const SseOptions& opts, size_t n0, size_t n,
                                 size_t data_size);

}  // namespace scis::testkit

#endif  // SCIS_TESTKIT_ORACLES_H_
