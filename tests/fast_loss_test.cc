// The training form (MsDivergenceForTraining, behind MsLoss) must match the
// exact MS divergence in gradient while skipping the constant data
// self-term in value.
#include <gtest/gtest.h>

#include "ot/divergence.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace scis {
namespace {

SinkhornOptions Opts(double lambda) {
  SinkhornOptions o;
  o.lambda = lambda;
  o.max_iters = 1000;
  o.tol = 1e-12;
  return o;
}

class FastLossTest : public ::testing::TestWithParam<double> {};

TEST_P(FastLossTest, GradientIdenticalToExactDivergence) {
  const double lambda = GetParam();
  Rng rng(1);
  Matrix x = rng.UniformMatrix(8, 3, 0, 1);
  Matrix xbar = rng.UniformMatrix(8, 3, 0, 1);
  Matrix m = rng.BernoulliMatrix(8, 3, 0.7);
  DivergenceResult exact = MsDivergence(xbar, x, m, Opts(lambda), true);
  DivergenceResult fast = MsDivergenceForTraining(xbar, x, m, Opts(lambda));
  EXPECT_TRUE(fast.grad_xbar.AllClose(exact.grad_xbar, 1e-10));
}

TEST_P(FastLossTest, ValueDiffersByDataSelfTerm) {
  const double lambda = GetParam();
  Rng rng(2);
  Matrix x = rng.UniformMatrix(8, 3, 0, 1);
  Matrix xbar = rng.UniformMatrix(8, 3, 0, 1);
  Matrix m = rng.BernoulliMatrix(8, 3, 0.7);
  const double exact = MsDivergence(xbar, x, m, Opts(lambda), false).value;
  const double fast =
      MsDivergenceForTraining(xbar, x, m, Opts(lambda)).value;
  // fast = exact + OT(x,x); the offset is independent of xbar.
  const double offset = fast - exact;
  Matrix xbar2 = rng.UniformMatrix(8, 3, 0, 1);
  const double exact2 = MsDivergence(xbar2, x, m, Opts(lambda), false).value;
  const double fast2 =
      MsDivergenceForTraining(xbar2, x, m, Opts(lambda)).value;
  EXPECT_NEAR(fast2 - exact2, offset, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, FastLossTest,
                         ::testing::Values(0.3, 2.0, 130.0));

TEST(SinkhornConvergenceTest, PotentialStoppingImpliesSmallViolation) {
  // The cheap Δf/λ stopping rule must still deliver tight marginals.
  Rng rng(4);
  Matrix x = rng.UniformMatrix(12, 4, 0, 1);
  Matrix c = PairwiseSquaredDistances(x, x);
  SinkhornOptions opts;
  opts.lambda = 0.5;
  opts.max_iters = 5000;
  opts.tol = 1e-10;
  SinkhornSolution s = SolveSinkhorn(c, opts);
  EXPECT_TRUE(s.converged);
  for (size_t j = 0; j < 12; ++j) {
    double col = 0;
    for (size_t i = 0; i < 12; ++i) col += s.plan(i, j);
    EXPECT_NEAR(col, 1.0 / 12.0, 1e-7);
  }
}

}  // namespace
}  // namespace scis
