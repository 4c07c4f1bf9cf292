#include "ot/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "kernels/sinkhorn_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/masked_cost.h"
#include "runtime/parallel_for.h"
#include "tensor/matrix_ops.h"

namespace scis {

namespace {

// Handles are resolved once and cached; updates are relaxed atomics, so the
// per-solve instrumentation cost is a handful of nanoseconds.
struct SinkhornMetrics {
  obs::Counter* solves;
  obs::Counter* iterations;
  obs::Counter* converged;
  obs::Counter* absorptions;
  obs::Counter* plan_ns;
  obs::Histogram* iters_per_solve;

  static const SinkhornMetrics& Get() {
    static const SinkhornMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return SinkhornMetrics{
          r.GetCounter("sinkhorn.solves"),
          r.GetCounter("sinkhorn.iterations"),
          r.GetCounter("sinkhorn.converged_solves"),
          r.GetCounter("sinkhorn.absorptions"),
          r.GetCounter("sinkhorn.plan_recovery_ns"),
          r.GetHistogram("sinkhorn.iters_per_solve",
                         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
      };
    }();
    return m;
  }
};

// Scalings are kept within [1/kScalingBound, kScalingBound]. Entries of K
// below exp(-708) flush to zero, so with both scalings in range a flushed
// entry would have carried at most 1e100·1e-307 of plan mass.
constexpr double kScalingBound = 1e50;

// A mat-vec sum the next scaling may divide by: positive, normal, finite.
// False for NaN as well.
bool UsableSum(double s) {
  return s >= std::numeric_limits<double>::min() &&
         s <= std::numeric_limits<double>::max();
}

bool AllUsable(const std::vector<double>& sums) {
  for (const double s : sums) {
    if (!UsableSum(s)) return false;
  }
  return true;
}

bool InRange(const std::vector<double>& scaling) {
  for (const double x : scaling) {
    if (!(x >= 1.0 / kScalingBound && x <= kScalingBound)) return false;
  }
  return true;
}

// One kernel-domain solve (Schmitzer 2019, "Stabilized sparse scaling
// algorithms for entropy regularized transport problems"). The dual
// potentials are split into absorbed log potentials and scalings,
//
//   f_i = λ·(fs_i + log u_i),   g_j = λ·(gs_j + log v_j),
//
// and `kern` always holds the stabilized Gibbs kernel
// K_ij = exp(fs_i + gs_j − C_ij/λ), so P = diag(a⊙u)·K·diag(b⊙v), with the
// uniform marginals a_i = 1/n and b_j = 1/m carried as two scalars. At the
// DIM weight λ = 130 nothing is ever absorbed: fs = gs = 0, K is built by
// one exp pass, and every iteration is two matrix–vector passes. A solve
// whose cost is symmetric by construction (SolveSinkhornSelf) builds that
// first K from its upper triangle and mirrors it: with fs = gs = 0 each
// K_ji is the same ExpD of the same double as K_ij.
//
// Absorption folds the scalings into fs/gs and rebuilds K. It runs when a
// scaling leaves [1/kScalingBound, kScalingBound] after an iteration, and
// when a mat-vec sum underflows (or overflows) before it can be inverted.
// In the second case the half-iteration is redone from a kernel whose
// column (or row) maximum is exactly exp(0): the other side's scaling is
// absorbed and this side's log potential is set to the c-transform
// gs_j = min_i (C_ij/λ − fs_i), after which every sum is at least the
// marginal weight 1/n (or 1/m). That is the log-domain dual update,
// computed once, so small λ degrades toward the log-domain cost instead of
// failing.
//
// Thread-count invariance: rows and columns are split by shape-derived
// grains, every kernel output is independent of the split (see
// kernels/sinkhorn_kernels.h), and the absorption decisions read only those
// outputs.
class KernelSolve {
 public:
  KernelSolve(const Matrix& cost, double lam, bool symmetric_cost)
      : cost_(cost),
        n_(cost.rows()),
        m_(cost.cols()),
        a_(1.0 / static_cast<double>(n_)),
        b_(1.0 / static_cast<double>(m_)),
        lam_(lam),
        inv_lam_(1.0 / lam),
        symmetric_cost_(symmetric_cost),
        row_grain_(runtime::GrainForWork(n_, m_)),
        col_grain_(runtime::GrainForWork(m_, n_)),
        fs_(n_, 0.0),
        gs_(m_, 0.0),
        u_(n_, 1.0),
        v_(m_, 1.0),
        au_(n_, a_),
        bv_(m_),
        row_sums_(n_),
        col_sums_(m_),
        kern_(n_, m_) {}

  // Runs Sinkhorn iterations until the row potential moves by less than
  // tol·λ in sup norm (checked from the second iteration on) or max_iters
  // is reached. Returns the iterations run.
  int Iterate(int max_iters, double tol, bool* converged) {
    SCIS_TRACE_SPAN("sinkhorn.iterate");
    if (symmetric_cost_) {
      BuildKernelFromUpperTriangle();
    } else {
      BuildKernel();
    }
    // |Δ log u_i| < tol  ⟺  exp(−tol) < u_new/u_old < exp(tol); the
    // comparisons are false for NaN, so a NaN never converges.
    const double ratio_lo = std::exp(-tol), ratio_hi = std::exp(tol);
    *converged = false;
    int it = 0;
    for (; it < max_iters; ++it) {
      // v-update: v = 1 / Kᵀ(a⊙u).
      for (size_t i = 0; i < n_; ++i) au_[i] = a_ * u_[i];
      ColumnSums();
      if (!AllUsable(col_sums_)) {
        ++absorptions_;
        AbsorbRows();
        ShiftColumns();
        BuildKernel();
        std::fill(au_.begin(), au_.end(), a_);
        ColumnSums();
      }
      for (size_t j = 0; j < m_; ++j) v_[j] = 1.0 / col_sums_[j];

      // u-update: u = 1 / K(b⊙v), tracking the movement of log u.
      for (size_t j = 0; j < m_; ++j) bv_[j] = b_ * v_[j];
      RowSums();
      bool moving = false;
      if (AllUsable(row_sums_)) {
        for (size_t i = 0; i < n_; ++i) {
          const double un = 1.0 / row_sums_[i];
          const double ratio = un / u_[i];
          moving |= !(ratio > ratio_lo && ratio < ratio_hi);
          u_[i] = un;
        }
      } else {
        // f/λ before the update, in the representation about to change.
        std::vector<double> prev(n_);
        for (size_t i = 0; i < n_; ++i) prev[i] = fs_[i] + std::log(u_[i]);
        ++absorptions_;
        AbsorbColumns();
        ShiftRows();
        BuildKernel();
        std::fill(bv_.begin(), bv_.end(), b_);
        RowSums();
        for (size_t i = 0; i < n_; ++i) {
          u_[i] = 1.0 / row_sums_[i];
          moving |= !(std::abs(fs_[i] + std::log(u_[i]) - prev[i]) < tol);
        }
      }
      if (it > 0 && !moving) {
        *converged = true;
        ++it;
        break;
      }
      if (!InRange(u_) || !InRange(v_)) {
        ++absorptions_;
        AbsorbRows();
        AbsorbColumns();
        BuildKernel();
      }
    }
    return it;
  }

  // Scales the kernel in place into the plan and fills the solution's plan,
  // costs and dual potentials.
  void RecoverPlan(SinkhornSolution* sol) {
    SCIS_TRACE_SPAN("sinkhorn.plan");
    // alpha_i = log(a_i u_i) + fs_i = log a_i + f_i/λ (likewise beta), so
    // log P_ij = alpha_i + beta_j − C_ij/λ.
    std::vector<double> alpha(n_), beta(m_);
    const double log_a = std::log(a_), log_b = std::log(b_);
    sol->f.resize(n_);
    sol->g.resize(m_);
    for (size_t i = 0; i < n_; ++i) {
      const double f_over_lam = fs_[i] + std::log(u_[i]);
      sol->f[i] = lam_ * f_over_lam;
      alpha[i] = log_a + f_over_lam;
      au_[i] = a_ * u_[i];
    }
    for (size_t j = 0; j < m_; ++j) {
      const double g_over_lam = gs_[j] + std::log(v_[j]);
      sol->g[j] = lam_ * g_over_lam;
      beta[j] = log_b + g_over_lam;
      bv_[j] = b_ * v_[j];
    }
    struct PlanPartial {
      double cost = 0.0;
      double log = 0.0;  // Σ P·(alpha_i + beta_j)
    };
    const PlanPartial total = runtime::ParallelReduce(
        0, n_, row_grain_, PlanPartial{},
        [&](size_t ib, size_t ie) {
          PlanPartial part;
          kernels::PlanRows(cost_.data(), au_.data(), bv_.data(),
                            alpha.data(), beta.data(), ib, ie, m_,
                            kern_.data(), &part.cost, &part.log);
          return part;
        },
        [](PlanPartial acc, const PlanPartial& part) {
          acc.cost += part.cost;
          acc.log += part.log;
          return acc;
        });
    sol->transport_cost = total.cost;
    sol->reg_value = total.cost + lam_ * (total.log - total.cost * inv_lam_);
    sol->plan = std::move(kern_);
  }

  uint64_t absorptions() const { return absorptions_; }

 private:
  void BuildKernel() {
    runtime::ParallelFor(0, n_, row_grain_, [&](size_t ib, size_t ie) {
      kernels::GibbsKernelRows(cost_.data(), inv_lam_, fs_.data(),
                               gs_.data(), ib, ie, m_, kern_.data());
    });
  }

  // The first kernel of a symmetric-cost solve, before any absorption.
  void BuildKernelFromUpperTriangle() {
    runtime::ParallelFor(0, n_, row_grain_, [&](size_t ib, size_t ie) {
      kernels::GibbsKernelUpperRows(cost_.data(), inv_lam_, fs_.data(),
                                    gs_.data(), ib, ie, n_, kern_.data());
    });
    runtime::ParallelFor(0, n_, row_grain_, [&](size_t ib, size_t ie) {
      kernels::MirrorUpperRows(kern_.data(), ib, ie, n_);
    });
  }

  void ColumnSums() {  // col_sums_ = Kᵀ(a⊙u)
    runtime::ParallelFor(0, m_, col_grain_, [&](size_t jb, size_t je) {
      kernels::KernelColumnSums(kern_.data(), au_.data(), n_, m_, jb, je,
                                col_sums_.data());
    });
  }

  void RowSums() {  // row_sums_ = K(b⊙v)
    runtime::ParallelFor(0, n_, row_grain_, [&](size_t ib, size_t ie) {
      kernels::KernelRowSums(kern_.data(), bv_.data(), ib, ie, m_,
                             row_sums_.data());
    });
  }

  // Fold u into fs (v into gs); the kernel must be rebuilt afterwards.
  void AbsorbRows() {
    for (size_t i = 0; i < n_; ++i) {
      fs_[i] += std::log(u_[i]);
      u_[i] = 1.0;
    }
  }
  void AbsorbColumns() {
    for (size_t j = 0; j < m_; ++j) {
      gs_[j] += std::log(v_[j]);
      v_[j] = 1.0;
    }
  }

  // gs_j = min_i (C_ij/λ − fs_i): the rebuilt kernel's column maxima are 1.
  void ShiftColumns() {
    std::fill(gs_.begin(), gs_.end(), std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < n_; ++i) {
      const double* crow = cost_.row_data(i);
      for (size_t j = 0; j < m_; ++j) {
        gs_[j] = std::min(gs_[j], inv_lam_ * crow[j] - fs_[i]);
      }
    }
  }

  // fs_i = min_j (C_ij/λ − gs_j): the rebuilt kernel's row maxima are 1.
  void ShiftRows() {
    for (size_t i = 0; i < n_; ++i) {
      const double* crow = cost_.row_data(i);
      double lo = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < m_; ++j) {
        lo = std::min(lo, inv_lam_ * crow[j] - gs_[j]);
      }
      fs_[i] = lo;
    }
  }

  const Matrix& cost_;
  const size_t n_, m_;
  const double a_, b_;  // the uniform marginal weights 1/n and 1/m
  const double lam_, inv_lam_;
  const bool symmetric_cost_;  // cost(i,j) == cost(j,i) bit for bit
  const size_t row_grain_, col_grain_;
  std::vector<double> fs_, gs_;   // absorbed log potentials, divided by λ
  std::vector<double> u_, v_;     // scalings
  std::vector<double> au_, bv_;   // a⊙u, b⊙v: the mat-vec operands
  std::vector<double> row_sums_, col_sums_;
  Matrix kern_;                   // stabilized Gibbs kernel, then the plan
  uint64_t absorptions_ = 0;
};

// The one solve behind every public entry point: uniform marginals
// a_i = 1/n, b_j = 1/m, the only measures DIM, its critic and RRSI use.
// symmetric_cost is set by SolveSinkhornSelf, whose cost is symmetric bit
// for bit, so the first Gibbs kernel is built from one triangle.
SinkhornSolution SolveUniform(const Matrix& cost, const SinkhornOptions& opts,
                              bool symmetric_cost) {
  SCIS_TRACE_SPAN("sinkhorn.solve");
  const SinkhornMetrics& metrics = SinkhornMetrics::Get();
  const size_t n = cost.rows(), m = cost.cols();
  SCIS_CHECK_GT(n, 0u);
  SCIS_CHECK_GT(m, 0u);
  SCIS_CHECK_MSG(opts.lambda > 0, "Sinkhorn requires lambda > 0");
  KernelSolve solve(cost, opts.lambda, symmetric_cost);
  SinkhornSolution sol;
  sol.iters = solve.Iterate(opts.max_iters, opts.tol, &sol.converged);
  metrics.solves->Add(1);
  metrics.iterations->Add(static_cast<uint64_t>(sol.iters));
  if (sol.converged) metrics.converged->Add(1);
  metrics.absorptions->Add(solve.absorptions());
  metrics.iters_per_solve->Observe(static_cast<double>(sol.iters));

  Stopwatch plan_watch;
  solve.RecoverPlan(&sol);
  metrics.plan_ns->Add(
      static_cast<uint64_t>(plan_watch.ElapsedSeconds() * 1e9));
  return sol;
}

}  // namespace

SinkhornSolution SolveSinkhorn(const Matrix& cost,
                               const SinkhornOptions& opts) {
  return SolveUniform(cost, opts, /*symmetric_cost=*/false);
}

SinkhornSolution SolveSinkhornSelf(const Matrix& points,
                                   const SinkhornOptions& opts) {
  const Matrix cost = [&] {
    SCIS_TRACE_SPAN("ot.masked_cost");
    return PairwiseSquaredDistances(points, points);
  }();
  return SolveUniform(cost, opts, /*symmetric_cost=*/true);
}

SinkhornSolution SolveSinkhornMasked(const Matrix& a, const Matrix& ma,
                                     const Matrix& b, const Matrix& mb,
                                     const SinkhornOptions& opts) {
  const Matrix cost = [&] {
    SCIS_TRACE_SPAN("ot.masked_cost");
    return MaskedCostMatrix(a, ma, b, mb);
  }();
  return SolveSinkhorn(cost, opts);
}

}  // namespace scis
