#include <gtest/gtest.h>

#include <cmath>

#include "eval/downstream.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table.h"

namespace scis {
namespace {

TEST(MetricsTest, MaskedRmseKnownValue) {
  Matrix imp{{1.0, 0.0}, {3.0, 5.0}};
  Matrix truth{{2.0, 0.0}, {3.0, 1.0}};
  Matrix mask{{1.0, 0.0}, {1.0, 1.0}};
  // Errors at masked cells: (1-2)=1, (3-3)=0, (5-1)=4 -> sqrt(17/3).
  EXPECT_NEAR(MaskedRmse(imp, truth, mask), std::sqrt(17.0 / 3.0), 1e-12);
}

TEST(MetricsTest, EmptyMaskGivesZero) {
  Matrix a(2, 2), b(2, 2), m(2, 2);
  EXPECT_DOUBLE_EQ(MaskedRmse(a, b, m), 0.0);
}

TEST(MetricsTest, MaeVector) {
  EXPECT_DOUBLE_EQ(Mae({1, 2, 3}, {2, 2, 5}), 1.0);
}

TEST(MetricsTest, AucPerfectSeparation) {
  EXPECT_DOUBLE_EQ(Auc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Auc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
}

TEST(MetricsTest, AucRandomScoresNearHalf) {
  Rng rng(1);
  std::vector<double> scores(2000), labels(2000);
  for (size_t i = 0; i < 2000; ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  EXPECT_NEAR(Auc(scores, labels), 0.5, 0.05);
}

TEST(MetricsTest, AucHandlesTies) {
  // All scores equal: AUC must be exactly 0.5 by the rank-sum convention.
  EXPECT_DOUBLE_EQ(Auc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
}

TEST(MetricsTest, AucDegenerateLabels) {
  EXPECT_DOUBLE_EQ(Auc({0.1, 0.9}, {1, 1}), 0.5);  // no negatives
}

TEST(MetricsTest, SummarizeMeanStd) {
  MeanStd s = Summarize({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev, 1.0);
  EXPECT_DOUBLE_EQ(Summarize({5.0}).stddev, 0.0);
  EXPECT_DOUBLE_EQ(Summarize({}).mean, 0.0);
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"Method", "RMSE"});
  t.AddRow({"GAIN", "0.398"});
  t.AddRow({"SCIS-GAIN", "0.386"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| Method    | RMSE  |"), std::string::npos);
  EXPECT_NE(s.find("| SCIS-GAIN | 0.386 |"), std::string::npos);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatMeanStd(0.398, 0.024), "0.398 (± 0.024)");
  EXPECT_EQ(FormatSeconds(123.4), "123");
  EXPECT_EQ(FormatSeconds(3.21), "3.2");
  EXPECT_EQ(FormatSeconds(0.01234), "0.012");
}

TEST(ExperimentTest, PrepareDataProtocol) {
  SyntheticSpec spec = TrialSpec(0.1);
  PreparedData prep = PrepareData(spec, 0.2, 0.0, 7);
  EXPECT_EQ(prep.train.num_rows(), spec.rows);
  EXPECT_EQ(prep.train.num_cols(), spec.cols);
  EXPECT_TRUE(prep.train.Validate().ok());
  // Values normalized.
  EXPECT_GE(MinValue(prep.train.values()), 0.0);
  EXPECT_LE(MaxValue(prep.train.values()), 1.0);
  // Hold-out cells are exactly the ones missing from train but with truth.
  size_t held = 0;
  for (size_t k = 0; k < prep.eval_mask.size(); ++k) {
    if (prep.eval_mask.data()[k] == 1.0) {
      ++held;
      EXPECT_EQ(prep.train.mask().data()[k], 0.0);
      // Truth is normalized with the train min/max, so held-out extremes
      // may fall slightly outside [0,1]; they must stay near it.
      EXPECT_GE(prep.truth.data()[k], -0.5);
      EXPECT_LE(prep.truth.data()[k], 1.5);
    }
  }
  EXPECT_GT(held, 0u);
  EXPECT_EQ(prep.labels.size(), spec.rows);
}

TEST(ExperimentTest, ExtraMissingRateIncreasesMissingness) {
  SyntheticSpec spec = TrialSpec(0.1);
  PreparedData base = PrepareData(spec, 0.2, 0.0, 7);
  PreparedData more = PrepareData(spec, 0.2, 0.5, 7);
  EXPECT_GT(more.train.MissingRate(), base.train.MissingRate() + 0.2);
}

TEST(ExperimentTest, DifferentSeedsDifferentDivisions) {
  SyntheticSpec spec = TrialSpec(0.1);
  PreparedData a = PrepareData(spec, 0.2, 0.0, 1);
  PreparedData b = PrepareData(spec, 0.2, 0.0, 2);
  EXPECT_FALSE(a.eval_mask == b.eval_mask);
}

TEST(ExperimentTest, FactoryKnowsAllPaperBaselines) {
  for (const std::string& name : KnownImputerNames()) {
    auto imp = MakeImputer(name, 2, 7);
    ASSERT_TRUE(imp.ok()) << name;
    EXPECT_EQ((*imp)->name(), name);
  }
  EXPECT_FALSE(MakeImputer("NotAModel", 2, 7).ok());
}

TEST(ExperimentTest, GenerativeNameDetection) {
  EXPECT_TRUE(IsGenerativeName("GAIN"));
  EXPECT_TRUE(IsGenerativeName("GINN"));
  EXPECT_FALSE(IsGenerativeName("MICE"));
}

TEST(ExperimentTest, RunPlainProducesFiniteRmse) {
  SyntheticSpec spec = TrialSpec(0.05);
  PreparedData prep = PrepareData(spec, 0.2, 0.0, 3);
  auto imp = MakeImputer("Mean", 1, 3);
  ASSERT_TRUE(imp.ok());
  MethodResult r = RunPlain(**imp, prep);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.rmse, 0.0);
  EXPECT_LT(r.rmse, 1.0);
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.sample_rate, 100.0);
}

TEST(ExperimentTest, RepeatAggregates) {
  int calls = 0;
  AggregateResult agg = Repeat(3, [&](uint64_t seed) {
    ++calls;
    MethodResult r;
    r.rmse = 0.1 * static_cast<double>(seed % 10);
    r.finished = true;
    return r;
  });
  EXPECT_EQ(calls, 3);
  EXPECT_GT(agg.rmse.mean, 0.0);
}

TEST(DownstreamTest, ClassificationLearnsSignal) {
  Rng rng(5);
  const size_t n = 600;
  Matrix x(n, 4);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Uniform();
    for (size_t j = 0; j < 4; ++j) x(i, j) = z + 0.05 * rng.Normal();
    y[i] = z > 0.5 ? 1.0 : 0.0;
  }
  DownstreamOptions o;
  o.epochs = 20;
  DownstreamResult r =
      EvaluateDownstream(x, y, TaskKind::kClassification, o);
  EXPECT_GT(r.auc, 0.9);
}

TEST(DownstreamTest, RegressionBeatsMeanPredictor) {
  Rng rng(6);
  const size_t n = 600;
  Matrix x(n, 3);
  std::vector<double> y(n);
  double mean_y = 0;
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Uniform();
    x(i, 0) = z;
    x(i, 1) = 1 - z;
    x(i, 2) = 0.5 * z;
    y[i] = 100.0 + 50.0 * z + rng.Normal(0, 2.0);
    mean_y += y[i];
  }
  mean_y /= n;
  double mae_const = 0;
  for (double v : y) mae_const += std::abs(v - mean_y);
  mae_const /= n;
  DownstreamOptions o;
  o.epochs = 30;
  DownstreamResult r = EvaluateDownstream(x, y, TaskKind::kRegression, o);
  EXPECT_LT(r.mae, mae_const);
}

}  // namespace
}  // namespace scis
