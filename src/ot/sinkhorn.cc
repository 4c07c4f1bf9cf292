#include "ot/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "kernels/lse.h"
#include "kernels/matmul.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/masked_cost.h"
#include "runtime/parallel_for.h"

namespace scis {

namespace {

// Handles are resolved once and cached; updates are relaxed atomics, so the
// per-solve instrumentation cost is a handful of nanoseconds.
struct SinkhornMetrics {
  obs::Counter* solves;
  obs::Counter* iterations;
  obs::Counter* converged;
  obs::Counter* plan_ns;
  obs::Histogram* iters_per_solve;

  static const SinkhornMetrics& Get() {
    static const SinkhornMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return SinkhornMetrics{
          r.GetCounter("sinkhorn.solves"),
          r.GetCounter("sinkhorn.iterations"),
          r.GetCounter("sinkhorn.converged_solves"),
          r.GetCounter("sinkhorn.plan_recovery_ns"),
          r.GetHistogram("sinkhorn.iters_per_solve",
                         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
      };
    }();
    return m;
  }
};

// Runs log-domain Sinkhorn iterations at weight `lam`, updating the dual
// potentials f/g in place. Returns iterations used; sets `converged`.
// `costT` is the transposed cost, built once per solve so the g-update
// streams rows contiguously instead of walking the cost matrix
// column-strided (an 8·m-byte stride — a TLB miss per element at the
// paper's 1000×1000 scale).
//
// Both dual updates are embarrassingly parallel across their output index
// (every g[j] reads all of f, every f[i] reads all of g, writes are
// disjoint), so the row chunks run the fused log-sum-exp kernel from
// src/kernels/lse.h under runtime::ParallelFor. The per-iteration division
// by λ is folded into the kernel as a multiply by a precomputed 1/λ, and
// the marginal shifts (g/λ + log b, f/λ + log a) are refreshed once per
// half-iteration in O(n + m). Kernel association is fixed by the row length
// and the convergence delta is a max-reduction (exact under any
// association), so iterates — and therefore iteration counts — are
// bit-identical to the serial path at any thread count.
int RunIterations(const Matrix& cost, const Matrix& costT,
                  const std::vector<double>& loga,
                  const std::vector<double>& logb, double lam, int max_iters,
                  double tol, std::vector<double>& f, std::vector<double>& g,
                  bool* converged) {
  SCIS_TRACE_SPAN("sinkhorn.iterate");
  const size_t n = cost.rows(), m = cost.cols();
  const double inv_lam = 1.0 / lam;
  // Grains depend only on the matrix shape (determinism contract).
  const size_t col_grain = runtime::GrainForWork(m, n);
  const size_t row_grain = runtime::GrainForWork(n, m);
  // Shift buffers, reused across iterations (the per-chunk scratch the old
  // loops allocated now comes from the kernels' per-thread arena).
  std::vector<double> sf(n), sg(m);
  *converged = false;
  int it = 0;
  for (; it < max_iters; ++it) {
    // g-update: enforce column marginals in the dual.
    for (size_t i = 0; i < n; ++i) sf[i] = f[i] * inv_lam + loga[i];
    runtime::ParallelFor(0, m, col_grain, [&](size_t jb, size_t je) {
      kernels::SinkhornDualUpdateRows(costT.data(), inv_lam, sf.data(), lam,
                                      jb, je, n, g.data());
    });
    // f-update: enforce row marginals, tracking the potential movement.
    // Convergence is declared when the potentials stop moving (relative to
    // λ) — equivalent to small marginal violation but O(1) to check, which
    // matters since this solver runs three times per DIM training batch.
    for (size_t j = 0; j < m; ++j) sg[j] = g[j] * inv_lam + logb[j];
    const double delta = runtime::ParallelReduce(
        0, n, row_grain, 0.0,
        [&](size_t ib, size_t ie) {
          return kernels::SinkhornDualUpdateRows(cost.data(), inv_lam,
                                                 sg.data(), lam, ib, ie, m,
                                                 f.data());
        },
        [](double a, double b) { return std::max(a, b); });
    if (it > 0 && delta / lam < tol) {
      *converged = true;
      ++it;
      break;
    }
  }
  return it;
}

// The historic weighted solve, with marginal validation hoisted to the
// public wrapper: SolveSinkhorn's internally-built uniform marginals need
// not re-run the sum check (n·(1/n) is not exactly 1.0 in floating point
// anyway; positivity is by construction).
SinkhornSolution SolveSinkhornWeightedImpl(const Matrix& cost,
                                           const std::vector<double>& a,
                                           const std::vector<double>& b,
                                           const SinkhornOptions& opts) {
  SCIS_TRACE_SPAN("sinkhorn.solve");
  const SinkhornMetrics& metrics = SinkhornMetrics::Get();
  const size_t n = cost.rows(), m = cost.cols();
  SCIS_CHECK_GT(n, 0u);
  SCIS_CHECK_GT(m, 0u);
  SCIS_CHECK_EQ(a.size(), n);
  SCIS_CHECK_EQ(b.size(), m);
  SCIS_CHECK_MSG(opts.lambda > 0, "Sinkhorn requires lambda > 0");
  const double lam = opts.lambda;

  std::vector<double> loga(n), logb(m);
  for (size_t i = 0; i < n; ++i) {
    SCIS_CHECK_GT(a[i], 0.0);
    loga[i] = std::log(a[i]);
  }
  for (size_t j = 0; j < m; ++j) {
    SCIS_CHECK_GT(b[j], 0.0);
    logb[j] = std::log(b[j]);
  }

  // Dual potentials; P_ij = exp((f_i + g_j - C_ij)/λ + log a_i + log b_j).
  std::vector<double> f(n, 0.0), g(m, 0.0);

  // Transposed cost for the g-update, built once per solve.
  Matrix costT(m, n);
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, m),
                       [&](size_t r0, size_t r1) {
    kernels::TransposeScaleRows(cost.data(), n, m, 1.0, costT.data(), r0, r1);
  });

  SinkhornSolution sol;
  sol.iters = RunIterations(cost, costT, loga, logb, lam, opts.max_iters,
                            opts.tol, f, g, &sol.converged);
  metrics.solves->Add(1);
  metrics.iterations->Add(static_cast<uint64_t>(sol.iters));
  if (sol.converged) metrics.converged->Add(1);
  metrics.iters_per_solve->Observe(static_cast<double>(sol.iters));

  // Plan recovery: rows are independent; the transport-cost and entropy
  // sums reduce over fixed row chunks combined in chunk order, so the
  // result does not depend on the thread count.
  SCIS_TRACE_SPAN("sinkhorn.plan");
  Stopwatch plan_watch;
  sol.plan = Matrix(n, m);
  const double inv_lam = 1.0 / lam;
  std::vector<double> fs(n), gs(m);
  for (size_t i = 0; i < n; ++i) fs[i] = f[i] * inv_lam + loga[i];
  for (size_t j = 0; j < m; ++j) gs[j] = g[j] * inv_lam + logb[j];
  struct PlanPartial {
    double cost = 0.0;
    double entropy = 0.0;
  };
  const PlanPartial total = runtime::ParallelReduce(
      0, n, runtime::GrainForWork(n, m), PlanPartial{},
      [&](size_t ib, size_t ie) {
        PlanPartial part;
        kernels::SinkhornPlanRows(cost.data(), inv_lam, fs.data(), gs.data(),
                                  ib, ie, m, sol.plan.data(), &part.cost,
                                  &part.entropy);
        return part;
      },
      [](PlanPartial acc, const PlanPartial& part) {
        acc.cost += part.cost;
        acc.entropy += part.entropy;
        return acc;
      });
  metrics.plan_ns->Add(
      static_cast<uint64_t>(plan_watch.ElapsedSeconds() * 1e9));
  sol.transport_cost = total.cost;
  sol.reg_value = total.cost + lam * total.entropy;
  sol.f = std::move(f);
  sol.g = std::move(g);
  return sol;
}

}  // namespace

SinkhornSolution SolveSinkhorn(const Matrix& cost,
                               const SinkhornOptions& opts) {
  const size_t n = cost.rows(), m = cost.cols();
  std::vector<double> a(n, 1.0 / static_cast<double>(n));
  std::vector<double> b(m, 1.0 / static_cast<double>(m));
  return SolveSinkhornWeightedImpl(cost, a, b, opts);
}

Result<SinkhornSolution> SolveSinkhornWeighted(const Matrix& cost,
                                               const std::vector<double>& a,
                                               const std::vector<double>& b,
                                               const SinkhornOptions& opts) {
  if (a.size() != cost.rows() || b.size() != cost.cols()) {
    return Status::InvalidArgument(
        "Sinkhorn marginals must match the cost shape: |a| = " +
        std::to_string(a.size()) + " vs rows = " +
        std::to_string(cost.rows()) + ", |b| = " + std::to_string(b.size()) +
        " vs cols = " + std::to_string(cost.cols()));
  }
  double sum_a = 0.0, sum_b = 0.0;
  for (const double w : a) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          "Sinkhorn row marginal entries must be positive and finite");
    }
    sum_a += w;
  }
  for (const double w : b) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          "Sinkhorn column marginal entries must be positive and finite");
    }
    sum_b += w;
  }
  constexpr double kSumTol = 1e-6;
  if (std::abs(sum_a - 1.0) > kSumTol || std::abs(sum_b - 1.0) > kSumTol) {
    return Status::InvalidArgument(
        "Sinkhorn marginals must sum to 1 (got Σa = " + std::to_string(sum_a) +
        ", Σb = " + std::to_string(sum_b) + ")");
  }
  return SolveSinkhornWeightedImpl(cost, a, b, opts);
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
