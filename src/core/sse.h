// SSE — sample size estimation (§V).
//
// Given the initial model M0 trained on n0 samples, SSE estimates the
// minimum sample size n* such that a model trained on n* samples differs
// from the full-data model by at most ε (Eq. 4) with confidence 1 − α:
//
//  1. Curvature probe (Theorem 1): the parameter distribution of a size-n
//     model is θ_n | θ0 ~ N(θ0, η(n)·H⁻¹), with
//     η(n) ≍ ζ(λ)·(1/n0 − 1/n), ζ(λ) = e^{6/λ}(1 + 1/λ^{⌊d/2⌋})².
//     The paper approximates H by the masked-output Gauss–Newton matrix
//     (1/n0)·Σ P*_ij [T(m_i)∇_θ x̄_i]ᵀ[T(m_i)∇_θ x̄_i]; we estimate its
//     *diagonal* with a Hutchinson probe — E_v[(Jᵀ(v ⊙ m))²] over random
//     ±1 vectors v equals the row sums of J², i.e. diag(Jᵀ J) — averaged
//     per probed row (full Gauss–Newton is quadratic in the parameter
//     count; DESIGN.md documents the substitution, and
//     testkit::FullCovarianceProbability samples the full law for
//     comparison). The hidden constant in ≍ is exposed as `eta_scale`.
//  2. Probability estimate (Prop. 2): k parameter pairs
//     (θ_n,i ~ N(θ0, η(n0,n)H⁻¹), θ_N,i ~ N(θ_n,i, η(n,N)H⁻¹)) are drawn
//     with common random numbers across candidate sizes; the empirical
//     fraction of pairs with D(θ_n,i, θ_N,i) ≤ ε must reach
//     (1−α)/(1−β) + sqrt(−log β / (2k)), clamped to 1 (the printed formula
//     exceeds 1 for the paper's k=20, β=0.01 — see EXPERIMENTS.md).
//     D is the Eq.-4 masked RMS output difference over the validation set.
//  3. Binary search for the smallest satisfying n in [n0, N].
#ifndef SCIS_CORE_SSE_H_
#define SCIS_CORE_SSE_H_

#include <vector>

#include "common/status.h"
#include "core/dim.h"
#include "models/imputer.h"

namespace scis {

struct SseOptions {
  double epsilon = 0.001;  // user-tolerated error bound ε
  double alpha = 0.05;     // confidence level (§VI default)
  double beta = 0.01;      // Hoeffding hyper-parameter (§VI default)
  int k = 20;              // parameter samples (§VI default)
  double lambda = 130.0;   // MS-divergence λ, enters ζ(λ)
  // Calibration of the hidden constant in Theorem 1's ≍ (the paper never
  // instantiates it); scales η multiplicatively. The default is calibrated
  // so that the paper's ε ∈ [0.001, 0.009] sweep lands n* in the reported
  // R_t regime on Table-II-shaped data (see EXPERIMENTS.md).
  double eta_scale = 1e-5;
  // Gauss–Newton probe: number of Hutchinson mini-batches and their size.
  int curvature_batches = 8;
  size_t curvature_batch_size = 128;
  uint64_t seed = 37;
};

struct SseResult {
  size_t n_star = 0;
  double probability_at_n_star = 0.0;  // empirical P(D ≤ ε) at n*
  double threshold = 0.0;              // Prop.-2 acceptance threshold
  double zeta = 0.0;                   // ζ(λ) used
  int search_steps = 0;                // binary-search probability evals
  double sse_seconds = 0.0;            // wall clock spent inside SSE
};

// Validates an SseOptions bundle: epsilon > 0; 0 < beta ≤ alpha < 1;
// k ≥ 1; lambda, eta_scale > 0; a positive curvature budget. Returns
// InvalidArgument naming the offending field (instead of aborting inside
// SseThreshold or silently misbehaving) — checked by Prepare() and
// EstimateMinimumSize(), matching the PR-8 Result<> convention.
Status ValidateSseOptions(const SseOptions& opts);

// ζ(λ) = e^{6/λ}(1 + 1/λ^{⌊d/2⌋})² for data normalized to [0,1]^d.
double SseZeta(double lambda, size_t d);
// Prop.-2 acceptance threshold, clamped to [0, 1].
double SseThreshold(double alpha, double beta, int k);

class SseEstimator {
 public:
  explicit SseEstimator(SseOptions opts = {});

  // model: the DIM-trained initial model M0 (its parameters are restored
  // on return). data_size: N. validation: the held-aside validation split
  // (Algorithm 1 line 1). n0: size of the initial training set.
  Result<SseResult> EstimateMinimumSize(GenerativeImputer& model,
                                        size_t data_size,
                                        const Dataset& validation, size_t n0);

  // Empirical P(D(θ_n, θ_N) ≤ ε) for one candidate n (exposed for the
  // Figure-3 sweep and tests). Uses the estimator's cached curvature and
  // common random numbers, so EstimateMinimumSize/Prepare must run first.
  double ProbabilityAt(GenerativeImputer& model, const Dataset& validation,
                       size_t n0, size_t n, size_t data_size);

  // Runs the curvature probe against `curvature_data` (usually the initial
  // training set) and caches θ0, H diag, and the CRN draws.
  Status Prepare(GenerativeImputer& model, const Dataset& curvature_data);

  const std::vector<double>& h_diag() const { return h_diag_; }

 private:
  // Number of the k CRN parameter pairs at candidate n whose distance is
  // within ε, evaluated in pair order. With a threshold, the loop stops as
  // soon as pass/k ≥ threshold is settled either way, and the count it
  // returns then gives the same answer to that test as the full count.
  // `full` says the loop evaluated all k pairs, so `pass` is the full count.
  struct PassCount {
    int pass = 0;
    bool full = false;
  };
  PassCount CountPasses(GenerativeImputer& model, const Dataset& validation,
                        size_t n0, size_t n, size_t data_size,
                        const double* threshold);

  // pass/k, published as the sse.confidence gauge.
  double Confidence(int pass) const;

  // Masked RMS output difference (Eq. 4) between two parameter vectors.
  double OutputDistance(GenerativeImputer& model, const Dataset& validation,
                        const std::vector<double>& theta_a,
                        const std::vector<double>& theta_b);

  SseOptions opts_;
  Rng rng_;
  bool prepared_ = false;
  std::vector<double> theta0_;
  std::vector<double> h_diag_;
  // Common random numbers: k pairs of standard-normal parameter draws.
  std::vector<std::vector<double>> z1_, z2_;
};

}  // namespace scis

#endif  // SCIS_CORE_SSE_H_
