// Validates SSE's Hutchinson curvature probe against the exactly computed
// diagonal of the masked-output Gauss–Newton matrix diag(Jᵀ J)/rows
// (testkit::DenseGaussNewtonDiag) for a tiny GAIN generator, and exercises
// related estimator properties.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dim.h"
#include "core/sse.h"
#include "data/missingness.h"
#include "models/gain_imputer.h"
#include "testkit/oracles.h"

namespace scis {
namespace {

TEST(SseCurvatureTest, HutchinsonMatchesExactGaussNewtonDiag) {
  // Tiny fixed dataset so the exact Jacobian sweep is affordable.
  Rng rng(5);
  const size_t n = 24, d = 2;
  Matrix values = rng.UniformMatrix(n, d, 0, 1);
  Matrix mask = rng.BernoulliMatrix(n, d, 0.75);
  MulInPlace(values, mask);
  Dataset data("tiny", values, mask, {});

  GainImputerOptions go;
  go.deep.epochs = 2;
  GainImputer gain(go);
  ASSERT_TRUE(gain.Fit(data).ok());

  const std::vector<double> exact = testkit::DenseGaussNewtonDiag(gain, data);

  SseOptions so;
  so.curvature_batches = 400;  // drive the Monte-Carlo error down
  so.curvature_batch_size = n;
  SseEstimator sse(so);
  ASSERT_TRUE(sse.Prepare(gain, data).ok());
  const std::vector<double>& est = sse.h_diag();
  ASSERT_EQ(est.size(), exact.size());

  // Compare in aggregate and per-parameter for the heavy coordinates. The
  // estimator floors tiny entries, so only compare above the floor.
  double exact_sum = 0, est_sum = 0;
  for (size_t k = 0; k < exact.size(); ++k) {
    exact_sum += exact[k];
    est_sum += est[k];
  }
  EXPECT_NEAR(est_sum / exact_sum, 1.0, 0.15);
  double exact_max = 0;
  size_t argmax = 0;
  for (size_t k = 0; k < exact.size(); ++k) {
    if (exact[k] > exact_max) {
      exact_max = exact[k];
      argmax = k;
    }
  }
  EXPECT_NEAR(est[argmax] / exact_max, 1.0, 0.25);
}

TEST(SseCurvatureTest, ProbeDeterministicGivenSeed) {
  Rng rng(6);
  Matrix values = rng.UniformMatrix(64, 3, 0, 1);
  Matrix mask = rng.BernoulliMatrix(64, 3, 0.8);
  MulInPlace(values, mask);
  Dataset data("det", values, mask, {});
  GainImputerOptions go;
  go.deep.epochs = 1;
  GainImputer gain(go);
  ASSERT_TRUE(gain.Fit(data).ok());
  SseOptions so;
  so.seed = 77;
  SseEstimator a(so), b(so);
  ASSERT_TRUE(a.Prepare(gain, data).ok());
  ASSERT_TRUE(b.Prepare(gain, data).ok());
  EXPECT_EQ(a.h_diag(), b.h_diag());
}

TEST(SseCurvatureTest, FlooringKeepsAllEntriesPositive) {
  // Dead parameters (e.g. weights into always-off relu units) would give
  // zero curvature and infinite sampled variance without the floor.
  Rng rng(7);
  Matrix values = rng.UniformMatrix(48, 3, 0, 1);
  Matrix mask = rng.BernoulliMatrix(48, 3, 0.7);
  MulInPlace(values, mask);
  Dataset data("floor", values, mask, {});
  GainImputerOptions go;
  go.deep.epochs = 1;
  GainImputer gain(go);
  ASSERT_TRUE(gain.Fit(data).ok());
  SseEstimator sse(SseOptions{});
  ASSERT_TRUE(sse.Prepare(gain, data).ok());
  for (double h : sse.h_diag()) EXPECT_GT(h, 0.0);
}

}  // namespace
}  // namespace scis
