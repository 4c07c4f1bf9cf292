// SSE curvature probe against the dense Gauss–Newton oracle. The
// production probe (sse.cc Prepare) is a Hutchinson estimator — unbiased
// for diag(JᵀJ) but with variance O(1/#probes) — so the comparisons here
// use many probe batches over the full dataset and statistical tolerances,
// while everything stays deterministic from the fixed seeds. The diagonal
// covariance itself is checked against sampling with the full dense
// Gauss–Newton matrix (DESIGN.md §5).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/dim.h"
#include "core/sse.h"
#include "data/dataset.h"
#include "data/missingness.h"
#include "models/gain_imputer.h"
#include "testkit/generators.h"
#include "testkit/models.h"
#include "testkit/oracles.h"

namespace scis {
namespace {

Dataset TinyData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix values = rng.UniformMatrix(n, d, 0.0, 1.0);
  Matrix mask = testkit::GenMask(rng, values, testkit::MaskMechanism::kMcar,
                                 0.25);
  for (size_t k = 0; k < values.size(); ++k) {
    if (mask[k] == 0.0) values[k] = 0.0;
  }
  return Dataset("tiny", std::move(values), std::move(mask),
                 NumericColumns(d));
}

// Mean relative error between the probe and the oracle diagonal, ignoring
// entries the production ridge floor overrides.
double MeanRelError(const std::vector<double>& probe,
                    const std::vector<double>& oracle, double floor) {
  double err = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < probe.size(); ++i) {
    if (oracle[i] <= floor) continue;
    err += std::abs(probe[i] - oracle[i]) / oracle[i];
    ++counted;
  }
  return counted ? err / static_cast<double>(counted) : 0.0;
}

TEST(SseOracleTest, HutchinsonDiagMatchesDenseGaussNewton) {
  const size_t d = 3;
  const Dataset data = TinyData(24, d, 11);
  testkit::TinyMlpModel model(testkit::TinyMlpModel::DefaultConfig(d, 5), d);
  ASSERT_TRUE(model.Fit(data).ok());

  SseOptions opts;
  opts.curvature_batches = 512;  // Hutchinson std ≈ sqrt(2/512) ≈ 6%
  opts.curvature_batch_size = data.num_rows();
  opts.seed = 99;
  SseEstimator estimator(opts);
  ASSERT_TRUE(estimator.Prepare(model, data).ok());

  const std::vector<double> oracle =
      testkit::DenseGaussNewtonDiag(model, data);
  ASSERT_EQ(estimator.h_diag().size(), oracle.size());

  double mean_oracle = 0.0;
  for (double v : oracle) mean_oracle += v;
  mean_oracle /= static_cast<double>(oracle.size());
  const double floor = std::max(mean_oracle * 1e-3, 1e-12);
  // Per-entry agreement within the probe's statistical error (a few σ).
  const double err = MeanRelError(estimator.h_diag(), oracle, floor);
  EXPECT_LT(err, 0.15) << "Hutchinson diagonal drifted from the dense "
                          "Gauss-Newton oracle (mean rel err "
                       << err << ")";
}

// A noisy two-column anti-correlation with 30% MCAR holes, and a GAIN
// generator DIM-trained on it.
Dataset SmallData(uint64_t seed) {
  Rng rng(seed);
  Matrix x(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const double z = rng.Uniform();
    x(i, 0) = z;
    x(i, 1) = 1 - z + rng.Normal(0, 0.05);
  }
  return InjectMcar(Dataset::Complete("gn", x), 0.3, rng);
}

std::unique_ptr<GainImputer> SmallTrained(const Dataset& data) {
  GainImputerOptions go;
  go.deep.epochs = 1;
  auto gain = std::make_unique<GainImputer>(go);
  DimOptions d;
  d.epochs = 8;
  d.batch_size = 64;
  d.lambda = 1.0;
  d.sinkhorn_iters = 30;
  DimTrainer dim(d);
  EXPECT_TRUE(dim.Train(*gain, data).ok());
  return gain;
}

TEST(FullGnTest, ProbabilityStillMonotoneAndDiagonalComparable) {
  Dataset data = SmallData(3);
  Rng rng(4);
  Dataset validation =
      data.GatherRows(rng.SampleWithoutReplacement(300, 80));
  auto model = SmallTrained(data);

  SseOptions opts;
  opts.k = 8;
  opts.curvature_batches = 16;
  opts.curvature_batch_size = 128;
  opts.epsilon = 0.02;
  opts.eta_scale = 0.05;
  SseEstimator diag_est(opts);
  ASSERT_TRUE(diag_est.Prepare(*model, data).ok());

  // Full-covariance probabilities at n = 60, 120, 300 (= N).
  std::vector<double> full;
  for (size_t n : {60u, 120u, 300u}) {
    full.push_back(testkit::FullCovarianceProbability(*model, data, validation,
                                                      opts, 60, n, 300));
  }
  EXPECT_GE(full[1], full[0]);
  EXPECT_GE(full[2], full[1]);
  // At n = N both covariances collapse the pair distance to zero.
  EXPECT_DOUBLE_EQ(full[2], 1.0);
  EXPECT_DOUBLE_EQ(
      diag_est.ProbabilityAt(*model, validation, 60, 300, 300), 1.0);

  // The diagonal approximation should agree with the full covariance
  // within a factor on the intermediate probability.
  const double pd = diag_est.ProbabilityAt(*model, validation, 60, 120, 300);
  EXPECT_NEAR(pd, full[1], 0.5);
}

TEST(SseOracleTest, MinimumSizeIsNonIncreasingInEpsilon) {
  const size_t d = 2;
  const Dataset data = TinyData(32, d, 31);
  const Dataset validation = TinyData(16, d, 37);
  testkit::TinyMlpModel model(testkit::TinyMlpModel::DefaultConfig(d, 3), d);
  ASSERT_TRUE(model.Fit(data).ok());

  for (const uint64_t seed : {7ULL, 19ULL, 29ULL}) {
    size_t prev = 0;
    bool first = true;
    for (const double epsilon : {0.003, 0.01, 0.05}) {
      SseOptions opts;
      opts.epsilon = epsilon;
      opts.lambda = 10.0;
      opts.curvature_batches = 8;
      opts.curvature_batch_size = data.num_rows();
      opts.k = 10;
      opts.seed = seed;
      SseEstimator estimator(opts);
      ASSERT_TRUE(estimator.Prepare(model, data).ok());
      Result<SseResult> r = estimator.EstimateMinimumSize(
          model, /*data_size=*/4096, validation, /*n0=*/32);
      ASSERT_TRUE(r.ok()) << r.status().message();
      if (!first) {
        EXPECT_LE(r.value().n_star, prev)
            << "n* grew when the tolerated error grew (seed " << seed
            << ", eps " << epsilon << ")";
      }
      prev = r.value().n_star;
      first = false;
    }
  }
}

}  // namespace
}  // namespace scis
