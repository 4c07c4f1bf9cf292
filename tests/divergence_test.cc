#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/grad_check.h"
#include "ot/divergence.h"
#include "ot/ms_loss.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace scis {
namespace {

SinkhornOptions Opts(double lambda, int iters = 1000) {
  SinkhornOptions o;
  o.lambda = lambda;
  o.max_iters = iters;
  o.tol = 1e-12;
  return o;
}

TEST(MsDivergenceTest, ZeroForIdenticalData) {
  Rng rng(1);
  Matrix x = rng.UniformMatrix(8, 3, 0, 1);
  Matrix m = rng.BernoulliMatrix(8, 3, 0.7);
  DivergenceResult r = MsDivergence(x, x, m, Opts(0.5), false);
  EXPECT_NEAR(r.value, 0.0, 1e-8);
}

TEST(MsDivergenceTest, PositiveForDistinctDistributions) {
  Rng rng(2);
  Matrix x = rng.UniformMatrix(16, 3, 0.0, 0.3);
  Matrix xbar = rng.UniformMatrix(16, 3, 0.7, 1.0);
  Matrix m = Matrix::Ones(16, 3);
  DivergenceResult r = MsDivergence(xbar, x, m, Opts(0.5), false);
  EXPECT_GT(r.value, 0.05);
}

TEST(MsDivergenceTest, SymmetricInArguments) {
  Rng rng(3);
  Matrix a = rng.UniformMatrix(6, 2, 0, 1);
  Matrix b = rng.UniformMatrix(6, 2, 0, 1);
  Matrix m = rng.BernoulliMatrix(6, 2, 0.8);
  const double ab = MsDivergence(a, b, m, Opts(0.3), false).value;
  // Swapping sides requires swapping masks consistently; with a shared mask
  // matrix the divergence is symmetric.
  const double ba = MsDivergence(b, a, m, Opts(0.3), false).value;
  EXPECT_NEAR(ab, ba, 1e-7);
}

TEST(MsDivergenceTest, MaskedCellsDoNotAffectValue) {
  Rng rng(4);
  Matrix x = rng.UniformMatrix(5, 3, 0, 1);
  Matrix xbar = rng.UniformMatrix(5, 3, 0, 1);
  Matrix m = rng.BernoulliMatrix(5, 3, 0.5);
  const double v1 = MsDivergence(xbar, x, m, Opts(0.4), false).value;
  // Perturb xbar only where m == 0.
  Matrix xbar2 = xbar;
  for (size_t k = 0; k < xbar2.size(); ++k) {
    if (m.data()[k] == 0.0) xbar2.data()[k] += 123.0;
  }
  const double v2 = MsDivergence(xbar2, x, m, Opts(0.4), false).value;
  EXPECT_NEAR(v1, v2, 1e-9);
}

TEST(MsDivergenceTest, GradientZeroAtMaskedCells) {
  Rng rng(5);
  Matrix x = rng.UniformMatrix(6, 3, 0, 1);
  Matrix xbar = rng.UniformMatrix(6, 3, 0, 1);
  Matrix m = rng.BernoulliMatrix(6, 3, 0.5);
  DivergenceResult r = MsDivergence(xbar, x, m, Opts(0.4), true);
  for (size_t k = 0; k < m.size(); ++k) {
    if (m.data()[k] == 0.0) {
      EXPECT_DOUBLE_EQ(r.grad_xbar.data()[k], 0.0);
    }
  }
}

class MsGradientTest : public ::testing::TestWithParam<double> {};

TEST_P(MsGradientTest, AnalyticMatchesNumeric) {
  const double lambda = GetParam();
  Rng rng(6);
  Matrix x = rng.UniformMatrix(5, 2, 0, 1);
  Matrix xbar = rng.UniformMatrix(5, 2, 0, 1);
  Matrix m = rng.BernoulliMatrix(5, 2, 0.7);
  DivergenceResult r = MsDivergence(xbar, x, m, Opts(lambda, 3000), true);
  auto f = [&](const Matrix& xv) {
    return MsDivergence(xv, x, m, Opts(lambda, 3000), false).value;
  };
  // The Prop.-1 envelope gradient of a well-converged Sinkhorn solve.
  EXPECT_LT(MaxGradError(f, xbar, r.grad_xbar, 1e-5), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, MsGradientTest,
                         ::testing::Values(0.1, 0.5, 2.0, 130.0));

TEST(MsDivergenceTest, GradientDescentReducesDivergence) {
  Rng rng(7);
  Matrix x = rng.UniformMatrix(12, 2, 0.4, 0.6);
  Matrix xbar = rng.UniformMatrix(12, 2, 0.0, 1.0);
  Matrix m = Matrix::Ones(12, 2);
  SinkhornOptions opts = Opts(0.3, 500);
  double prev = MsDivergence(xbar, x, m, opts, false).value;
  const double first = prev;
  for (int it = 0; it < 30; ++it) {
    DivergenceResult r = MsDivergence(xbar, x, m, opts, true);
    AxpyInPlace(xbar, -0.05, r.grad_xbar);
  }
  const double last = MsDivergence(xbar, x, m, opts, false).value;
  EXPECT_LT(last, 0.5 * first);
}

TEST(MsDivergenceTest, Example1Shape) {
  // §IV-A Example 1: true data δ0, generated δθ, masks Bernoulli(q). The
  // MS divergence grows as 2qθ² while the JS divergence is the constant
  // 2 log 2 for any θ ≠ 0 (the vanishing-gradient pathology).
  const double q = 0.5;
  const size_t n = 20;
  Matrix x(n, 1);  // all zeros
  Matrix m(n, 1);
  for (size_t i = 0; i < n; ++i) m(i, 0) = i < n * q ? 1.0 : 0.0;
  SinkhornOptions opts = Opts(0.01, 5000);

  auto s_of_theta = [&](double theta) {
    Matrix xbar = Matrix::Full(n, 1, theta);
    return MsDivergence(xbar, x, m, opts, false).value;
  };
  const double s0 = s_of_theta(0.0);
  EXPECT_NEAR(s0, 0.0, 1e-6);
  for (double theta : {0.2, 0.5, 1.0}) {
    // S(θ) − S(0) ≈ 2 q θ² (entropy constants cancel in the divergence).
    EXPECT_NEAR(s_of_theta(theta) - s0, 2.0 * q * theta * theta, 0.05);
  }
  // Differentiability: finite differences of S are smooth and nonzero —
  // unlike JS, the gradient carries signal toward θ = 0.
  const double g = (s_of_theta(0.31) - s_of_theta(0.29)) / 0.02;
  EXPECT_NEAR(g, 4.0 * q * 0.3, 0.1);
}

TEST(SinkhornDivergenceTest, MatchesMsWithFullMask) {
  Rng rng(8);
  Matrix a = rng.UniformMatrix(6, 3, 0, 1);
  Matrix b = rng.UniformMatrix(6, 3, 0, 1);
  Matrix ones = Matrix::Ones(6, 3);
  const double s1 = SinkhornDivergence(a, b, Opts(0.5), false).value;
  const double s2 = MsDivergence(a, b, ones, Opts(0.5), false).value;
  EXPECT_NEAR(s1, s2, 1e-9);
}

// Both gradients of S_λ(A, B) come from one call's three solves: A's from
// the cross plan's source side, B's from its target side. Each must match
// central differences at the MsGradientTest tolerance.
class SinkhornBothGradientTest : public ::testing::TestWithParam<double> {};

TEST_P(SinkhornBothGradientTest, AnalyticMatchesNumeric) {
  const double lambda = GetParam();
  Rng rng(15);
  const Matrix a = rng.UniformMatrix(5, 2, 0, 1);
  const Matrix b = rng.UniformMatrix(4, 2, 0, 1);
  const DivergenceResult r =
      SinkhornDivergence(a, b, Opts(lambda, 3000), true);
  ASSERT_TRUE(r.grad_xbar.SameShape(a));
  ASSERT_TRUE(r.grad_b.SameShape(b));
  auto fa = [&](const Matrix& av) {
    return SinkhornDivergence(av, b, Opts(lambda, 3000), false).value;
  };
  auto fb = [&](const Matrix& bv) {
    return SinkhornDivergence(a, bv, Opts(lambda, 3000), false).value;
  };
  EXPECT_LT(MaxGradError(fa, a, r.grad_xbar, 1e-5), 2e-4);
  EXPECT_LT(MaxGradError(fb, b, r.grad_b, 1e-5), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, SinkhornBothGradientTest,
                         ::testing::Values(0.1, 0.5, 2.0, 130.0));

TEST(MsLossTest, ValueIsDivergenceOver2n) {
  Rng rng(9);
  Matrix x = rng.UniformMatrix(7, 2, 0, 1);
  Matrix xbar0 = rng.UniformMatrix(7, 2, 0, 1);
  Matrix m = rng.BernoulliMatrix(7, 2, 0.6);
  SinkhornOptions opts = Opts(0.4);
  Tape tape;
  Var xbar = tape.Leaf(xbar0);
  Var loss = MsLoss(xbar, x, m, opts);
  // The training value: the MS divergence without its constant X–X term.
  const double direct = MsDivergenceForTraining(xbar0, x, m, opts).value;
  EXPECT_DOUBLE_EQ(loss.value()(0, 0), direct / (2.0 * 7));
}

TEST(MsLossTest, BackwardInjectsPropOneGradient) {
  Rng rng(10);
  Matrix x = rng.UniformMatrix(5, 2, 0, 1);
  Matrix xbar0 = rng.UniformMatrix(5, 2, 0, 1);
  Matrix m = rng.BernoulliMatrix(5, 2, 0.8);
  SinkhornOptions opts = Opts(0.4, 2000);
  Tape tape;
  Var xbar = tape.Leaf(xbar0);
  Var loss = MsLoss(xbar, x, m, opts);
  tape.Backward(loss);
  DivergenceResult r = MsDivergence(xbar0, x, m, opts, true);
  Matrix expected = MulScalar(r.grad_xbar, 1.0 / (2.0 * 5));
  EXPECT_TRUE(xbar.grad().AllClose(expected, 1e-10));
}

TEST(MsLossTest, SinkhornLossBothSidesReceiveGradients) {
  Rng rng(11);
  Matrix a0 = rng.UniformMatrix(5, 2, 0, 1);
  Matrix b0 = rng.UniformMatrix(5, 2, 0, 1);
  Tape tape;
  Var a = tape.Leaf(a0);
  Var b = tape.Leaf(b0);
  Var loss = SinkhornLossBoth(a, b, Opts(0.4));
  tape.Backward(loss);
  EXPECT_GT(FrobeniusNorm(a.grad()), 1e-8);
  EXPECT_GT(FrobeniusNorm(b.grad()), 1e-8);
}

}  // namespace
}  // namespace scis
