#include <gtest/gtest.h>

#include <cmath>

#include "data/missingness.h"
#include "data/normalizer.h"
#include "eval/metrics.h"
#include "models/mean_imputer.h"
#include "models/xgb_imputer.h"
#include "tensor/matrix_ops.h"

namespace scis {
namespace {

TEST(XgbRegressorTest, FitsLinearTarget) {
  Rng rng(1);
  const size_t n = 400;
  Matrix x = rng.UniformMatrix(n, 3, 0, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = 2.0 * x(i, 0) - x(i, 2) + 0.5;
  XgbRegressor model;
  model.Fit(x, y);
  double mse = 0;
  for (size_t i = 0; i < n; ++i) {
    const double e = model.Predict(x.row_data(i)) - y[i];
    mse += e * e;
  }
  EXPECT_LT(mse / n, 0.01);
}

TEST(XgbRegressorTest, RegularizationShrinksSteps) {
  Rng rng(2);
  const size_t n = 200;
  Matrix x = rng.UniformMatrix(n, 2, 0, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = x(i, 0);
  XgbOptions strong;
  strong.reg_lambda = 1e5;
  strong.num_rounds = 5;
  XgbRegressor heavy(strong);
  heavy.Fit(x, y);
  // With enormous λ the leaf weights collapse toward 0: predictions stay
  // near the base mean.
  double spread = 0;
  for (size_t i = 0; i < n; ++i) {
    spread = std::max(spread, std::abs(heavy.Predict(x.row_data(i)) - 0.5));
  }
  EXPECT_LT(spread, 0.1);
}

TEST(XgbRegressorTest, GammaPrunesSplits) {
  Rng rng(3);
  const size_t n = 200;
  Matrix x = rng.UniformMatrix(n, 2, 0, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = x(i, 0) + rng.Normal(0, 0.01);
  XgbOptions opts;
  opts.gamma = 1e9;  // no split can pay for itself
  opts.num_rounds = 3;
  XgbRegressor stump(opts);
  stump.Fit(x, y);
  // Prediction should be (close to) constant.
  const double p0 = stump.Predict(x.row_data(0));
  for (size_t i = 1; i < n; ++i) {
    EXPECT_NEAR(stump.Predict(x.row_data(i)), p0, 1e-9);
  }
}

TEST(XgbImputerTest, BeatsMeanOnCorrelatedData) {
  Rng rng(4);
  const size_t n = 400;
  Matrix x(n, 3);
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Uniform();
    x(i, 0) = z;
    x(i, 1) = 2 * z + rng.Normal(0, 0.02);
    x(i, 2) = 1 - z + rng.Normal(0, 0.02);
  }
  Dataset inc = InjectMcar(Dataset::Complete("xgb", x), 0.25, rng);
  HoldOut h = MakeHoldOut(inc, 0.2, rng);
  MinMaxNormalizer norm;
  Dataset train = norm.FitTransform(h.train);
  Matrix truth(n, 3);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < 3; ++j)
      if (h.eval_mask(i, j) == 1.0)
        truth(i, j) =
            (h.truth(i, j) - norm.lo()[j]) / (norm.hi()[j] - norm.lo()[j]);

  MeanImputer mean;
  XgbImputer xgb;
  ASSERT_TRUE(mean.Fit(train).ok());
  ASSERT_TRUE(xgb.Fit(train).ok());
  const double rmse_mean =
      MaskedRmse(mean.Impute(train), truth, h.eval_mask);
  const double rmse_xgb = MaskedRmse(xgb.Impute(train), truth, h.eval_mask);
  EXPECT_LT(rmse_xgb, 0.7 * rmse_mean);
}

}  // namespace
}  // namespace scis
