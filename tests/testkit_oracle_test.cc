// Differential tests of the production numeric paths against the slow
// testkit reference oracles, plus the PR-1 determinism contract (bit-equal
// results at 1, 2, and 4 threads) on the same workloads.
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/grad_check.h"
#include "core/dim.h"
#include "ot/divergence.h"
#include "ot/masked_cost.h"
#include "ot/ms_loss.h"
#include "ot/sinkhorn.h"
#include "runtime/runtime.h"
#include "tensor/matrix_ops.h"
#include "testkit/generators.h"
#include "testkit/gtest_glue.h"
#include "testkit/models.h"
#include "testkit/oracles.h"

namespace scis {
namespace {

using testkit::GenMask;
using testkit::GenMatrix;
using testkit::MaskMechanism;
using testkit::MatrixGen;
using testkit::PropertyStatus;

// Runs `compute` at 1, 2, and 4 threads and checks the results are
// bit-identical (the runtime determinism contract), returning the 1-thread
// result. Restores the default thread configuration on exit.
Matrix ComputeAtThreadCounts(const std::function<Matrix()>& compute,
                             PropertyStatus* status) {
  runtime::SetNumThreads(1);
  Matrix serial = compute();
  for (const int t : {2, 4}) {
    runtime::SetNumThreads(t);
    const Matrix threaded = compute();
    if (!(threaded == serial)) {
      *status = PropertyStatus::Fail(
          "result at " + std::to_string(t) +
          " threads differs bit-wise from the 1-thread result");
      break;
    }
  }
  runtime::SetNumThreads(0);
  return serial;
}

TEST(OracleDiffTest, MatMulMatchesNaiveOracleAndIsThreadInvariant) {
  CHECK_PROPERTY("matmul_vs_naive_oracle", [](uint64_t seed) {
    Rng rng(seed);
    const size_t m = 1 + rng.UniformIndex(24);
    const size_t k = 1 + rng.UniformIndex(24);
    const size_t n = 1 + rng.UniformIndex(24);
    const Matrix a = rng.NormalMatrix(m, k, 0.0, 1.0);
    const Matrix b = rng.NormalMatrix(k, n, 0.0, 1.0);
    PropertyStatus status = PropertyStatus::Pass();
    const Matrix fast =
        ComputeAtThreadCounts([&] { return MatMul(a, b); }, &status);
    if (!status.ok) return status;
    const Matrix slow = testkit::NaiveMatMul(a, b);
    PROP_CHECK_MSG(fast.AllClose(slow, 1e-10),
                   "MatMul disagrees with the O(n^3) oracle");
    return PropertyStatus::Pass();
  });
}

TEST(OracleDiffTest, MaskedCostMatchesDefinitionOracle) {
  CHECK_PROPERTY("masked_cost_vs_definition", [](uint64_t seed) {
    Rng rng(seed);
    MatrixGen g;
    g.min_rows = 1;
    g.max_rows = 7;
    g.min_cols = 1;
    g.max_cols = 5;
    const Matrix a = GenMatrix(rng, g);
    Matrix b = rng.UniformMatrix(1 + rng.UniformIndex(7), a.cols(), -2.0, 2.0);
    const Matrix ma =
        GenMask(rng, a, static_cast<MaskMechanism>(seed % 3), 0.35);
    const Matrix mb =
        GenMask(rng, b, static_cast<MaskMechanism>((seed + 1) % 3), 0.35);
    const Matrix fast = MaskedCostMatrix(a, ma, b, mb);
    const Matrix slow = testkit::NaiveMaskedCost(a, ma, b, mb);
    PROP_CHECK_MSG(fast.AllClose(slow, 1e-9),
                   "MaskedCostMatrix disagrees with the Def.-2 oracle");
    return PropertyStatus::Pass();
  });
}

TEST(OracleDiffTest, SinkhornMatchesBruteForceOracleAcrossLambdaLadder) {
  CHECK_PROPERTY("sinkhorn_vs_brute_force", [](uint64_t seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.UniformIndex(4);
    const size_t m = 2 + rng.UniformIndex(4);
    const Matrix pts_a = rng.UniformMatrix(n, 3, 0.0, 1.0);
    const Matrix pts_b = rng.UniformMatrix(m, 3, 0.0, 1.0);
    const Matrix cost = PairwiseSquaredDistances(pts_a, pts_b);
    const double ladder[] = {0.3, 1.0, 5.0, 50.0};
    const double lambda = ladder[seed % 4];

    SinkhornOptions opts;
    opts.lambda = lambda;
    opts.max_iters = 20000;
    opts.tol = 1e-13;
    const SinkhornSolution fast = SolveSinkhorn(cost, opts);
    const testkit::OtOracle slow = testkit::SolveEntropicOtOracle(cost, lambda);
    PROP_CHECK_MSG(slow.converged, "oracle did not converge");
    PROP_CHECK_NEAR(fast.reg_value, slow.reg_value,
                    1e-8 * (1.0 + std::abs(slow.reg_value)));
    PROP_CHECK_NEAR(fast.transport_cost, slow.transport_cost,
                    1e-7 * (1.0 + std::abs(slow.transport_cost)));
    PROP_CHECK_MSG(fast.plan.AllClose(slow.plan, 1e-8),
                   "transport plans disagree");
    return PropertyStatus::Pass();
  });
}

TEST(OracleDiffTest, SinkhornIsThreadInvariant) {
  CHECK_PROPERTY("sinkhorn_thread_invariance", [](uint64_t seed) {
    Rng rng(seed);
    const Matrix pts = rng.UniformMatrix(24, 4, 0.0, 1.0);
    const Matrix cost = PairwiseSquaredDistances(pts.RowRange(0, 12),
                                                 pts.RowRange(12, 24));
    SinkhornOptions opts;
    opts.lambda = 1.0;
    opts.max_iters = 300;
    PropertyStatus status = PropertyStatus::Pass();
    ComputeAtThreadCounts([&] { return SolveSinkhorn(cost, opts).plan; },
                          &status);
    return status;
  });
}

TEST(OracleDiffTest, MsDivergenceMatchesOracleAssembly) {
  CHECK_PROPERTY("ms_divergence_vs_oracle", [](uint64_t seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.UniformIndex(4);
    const size_t d = 1 + rng.UniformIndex(4);
    const Matrix x = rng.UniformMatrix(n, d, 0.0, 1.0);
    const Matrix xbar = rng.UniformMatrix(n, d, 0.0, 1.0);
    const Matrix m =
        GenMask(rng, x, static_cast<MaskMechanism>(seed % 3), 0.3);
    const double lambda = (seed % 2 == 0) ? 1.0 : 5.0;
    SinkhornOptions opts;
    opts.lambda = lambda;
    opts.max_iters = 20000;
    opts.tol = 1e-13;
    const DivergenceResult fast =
        MsDivergence(xbar, x, m, opts, /*with_grad=*/false);
    const double slow = testkit::OracleMsDivergence(xbar, x, m, lambda);
    PROP_CHECK_NEAR(fast.value, slow, 1e-7 * (1.0 + std::abs(slow)));
    return PropertyStatus::Pass();
  });
}

TEST(OracleDiffTest, MsDivergenceGradIsThreadInvariant) {
  CHECK_PROPERTY("ms_divergence_grad_thread_invariance", [](uint64_t seed) {
    Rng rng(seed);
    const Matrix x = rng.UniformMatrix(10, 4, 0.0, 1.0);
    const Matrix xbar = rng.UniformMatrix(10, 4, 0.0, 1.0);
    const Matrix m = GenMask(rng, x, MaskMechanism::kMcar, 0.3);
    SinkhornOptions opts;
    opts.lambda = 1.0;
    opts.max_iters = 200;
    PropertyStatus status = PropertyStatus::Pass();
    ComputeAtThreadCounts(
        [&] { return MsDivergence(xbar, x, m, opts, true).grad_xbar; },
        &status);
    return status;
  });
}

// Central-difference oracle through the *full* DIM evaluation loss: the MS
// divergence of a smooth MLP generator's reconstruction, differentiated to
// the generator parameters through the custom-gradient Sinkhorn bridge.
TEST(OracleDiffTest, DimLossParameterGradMatchesCentralDifferences) {
  CHECK_PROPERTY(
      "dim_loss_grad_vs_central_diff",
      [](uint64_t seed) {
        Rng rng(seed);
        const size_t d = 2 + rng.UniformIndex(2);  // 2 or 3 columns
        const size_t n = 5 + rng.UniformIndex(4);
        const Matrix values = rng.UniformMatrix(n, d, 0.0, 1.0);
        const Matrix mask = GenMask(rng, values, MaskMechanism::kMcar, 0.3);
        Matrix x = values;
        for (size_t k = 0; k < x.size(); ++k) {
          if (mask[k] == 0.0) x[k] = 0.0;
        }
        testkit::TinyMlpModel model(
            testkit::TinyMlpModel::DefaultConfig(d, seed ^ 0xABCD), d);

        DimOptions dopts;
        dopts.lambda = 2.0;
        dopts.sinkhorn_iters = 4000;

        // Analytic gradient through the tape.
        SinkhornOptions sopts;
        sopts.lambda = dopts.lambda;
        sopts.max_iters = dopts.sinkhorn_iters;
        sopts.tol = 1e-7;
        Tape tape;
        Var xbar = model.ReconstructOnTape(tape, x, mask, /*train=*/false);
        Var loss = MsLoss(xbar, x, mask, sopts);
        tape.Backward(loss);
        std::vector<double> analytic;
        for (const Matrix& g : model.generator_params().CollectGrads()) {
          analytic.insert(analytic.end(), g.data(), g.data() + g.size());
        }

        const std::vector<double> numeric =
            testkit::NumericDimLossGrad(model, dopts, x, mask, 1e-5);
        double max_err = 0.0, scale = 1e-8;
        for (size_t i = 0; i < numeric.size(); ++i) {
          max_err = std::max(max_err, std::abs(analytic[i] - numeric[i]));
          scale = std::max(scale, std::abs(numeric[i]));
        }
        PROP_CHECK_LE(max_err / scale, 5e-4);
        return PropertyStatus::Pass();
      },
      [] {
        testkit::PropertyOptions opts;
        opts.iterations = 8;  // O(P) Sinkhorn solves per seed
        return opts;
      }());
}

// The training fast path must have the *exact* same gradient as the full
// divergence (the dropped OT(X,X) self term is constant in X̄). This is the
// invariant a dropped X̄ self term would break.
TEST(OracleDiffTest, FastLossGradientIdenticalToFullLoss) {
  CHECK_PROPERTY("fast_loss_grad_identity", [](uint64_t seed) {
    Rng rng(seed);
    const size_t n = 3 + rng.UniformIndex(6);
    const size_t d = 1 + rng.UniformIndex(4);
    const Matrix x = rng.UniformMatrix(n, d, 0.0, 1.0);
    const Matrix xbar = rng.UniformMatrix(n, d, 0.0, 1.0);
    const Matrix m = GenMask(rng, x, MaskMechanism::kMcar, 0.3);
    SinkhornOptions opts;
    opts.lambda = 1.0;
    opts.max_iters = 500;
    const DivergenceResult full = MsDivergence(xbar, x, m, opts, true);
    const DivergenceResult fast = MsDivergenceForTraining(xbar, x, m, opts);
    PROP_CHECK_MSG(full.grad_xbar == fast.grad_xbar,
                   "fast-path gradient differs from the full divergence");
    return PropertyStatus::Pass();
  });
}

}  // namespace
}  // namespace scis
