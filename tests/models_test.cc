#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/missingness.h"
#include "data/normalizer.h"
#include "eval/metrics.h"
#include "models/baran_imputer.h"
#include "models/column_stats.h"
#include "models/knn_imputer.h"
#include "models/mean_imputer.h"
#include "models/median_imputer.h"
#include "models/mice_imputer.h"
#include "models/missforest_imputer.h"
#include "models/tree.h"
#include "tensor/matrix_ops.h"
#include "testkit/golden.h"

namespace scis {
namespace {

// Low-rank correlated data where model-based imputers should beat means:
// col1 = 2*col0, col2 = -col0 (+ noise), normalized to [0,1].
struct Bench {
  Dataset train;
  Matrix truth;
  Matrix eval_mask;
};

Bench MakeBench(size_t n = 400, double miss = 0.25, uint64_t seed = 1) {
  Rng rng(seed);
  Matrix x(n, 3);
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Uniform();
    x(i, 0) = z + rng.Normal(0, 0.02);
    x(i, 1) = 2.0 * z + rng.Normal(0, 0.02);
    x(i, 2) = 1.0 - z + rng.Normal(0, 0.02);
  }
  Dataset complete = Dataset::Complete("bench", x);
  Dataset incomplete = InjectMcar(complete, miss, rng);
  HoldOut h = MakeHoldOut(incomplete, 0.2, rng);
  MinMaxNormalizer norm;
  Bench b;
  b.train = norm.FitTransform(h.train);
  b.eval_mask = h.eval_mask;
  b.truth = Matrix(n, 3);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      if (h.eval_mask(i, j) == 1.0) {
        b.truth(i, j) =
            (h.truth(i, j) - norm.lo()[j]) / (norm.hi()[j] - norm.lo()[j]);
      }
    }
  }
  return b;
}

double RunRmse(Imputer& imp, const Bench& b) {
  EXPECT_TRUE(imp.Fit(b.train).ok());
  Matrix imputed = imp.Impute(b.train);
  return MaskedRmse(imputed, b.truth, b.eval_mask);
}

TEST(ColumnStatsTest, MeansOverObservedOnly) {
  Matrix x{{2.0, 0.0}, {4.0, 8.0}};
  Matrix m{{1.0, 0.0}, {1.0, 1.0}};
  Dataset d("s", x, m, {});
  std::vector<double> means = ObservedColumnMeans(d);
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[1], 8.0);
  Matrix filled = MeanFill(d);
  EXPECT_DOUBLE_EQ(filled(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(filled(0, 0), 2.0);  // observed untouched
}

TEST(MeanImputerTest, ReconstructsColumnMeans) {
  Bench b = MakeBench();
  MeanImputer imp;
  ASSERT_TRUE(imp.Fit(b.train).ok());
  Matrix rec = imp.Reconstruct(b.train);
  std::vector<double> means = ObservedColumnMeans(b.train);
  for (size_t j = 0; j < 3; ++j) EXPECT_NEAR(rec(0, j), means[j], 1e-12);
}

TEST(ImputerTest, ImputePreservesObservedCells) {
  Bench b = MakeBench();
  MeanImputer imp;
  ASSERT_TRUE(imp.Fit(b.train).ok());
  Matrix imputed = imp.Impute(b.train);
  for (size_t k = 0; k < imputed.size(); ++k) {
    if (b.train.mask().data()[k] == 1.0) {
      EXPECT_DOUBLE_EQ(imputed.data()[k], b.train.values().data()[k]);
    }
  }
}

TEST(KnnImputerTest, BeatsMeanOnCorrelatedData) {
  Bench b = MakeBench();
  MeanImputer mean;
  KnnImputer knn;
  const double rmse_mean = RunRmse(mean, b);
  const double rmse_knn = RunRmse(knn, b);
  EXPECT_LT(rmse_knn, 0.8 * rmse_mean);
}

// Pins the output on an exact one-leaf reference (300 rows) and on a
// tree-indexed one (above index::kExactKnnMaxRows rows).
TEST(KnnImputerTest, ReconstructIsPinned) {
  const struct {
    size_t n;
    uint64_t digest;
  } cases[] = {{300, 0x2b0f84827ae06fb5ull}, {2500, 0x2d3d50aa704fc612ull}};
  for (const auto& c : cases) {
    const Bench b = MakeBench(c.n);
    KnnImputer knn;
    ASSERT_TRUE(knn.Fit(b.train).ok());
    const uint64_t digest = testkit::MatrixDigest(knn.Reconstruct(b.train));
    EXPECT_EQ(digest, c.digest)
        << c.n << " rows: digest 0x" << std::hex << digest;
  }
}

// Regression: a query row with no co-observed coordinate against any
// reference row has no finite-distance neighbours; it must fall back to
// the observed column means, not average an arbitrary neighbour set.
TEST(KnnImputerTest, NoOverlapQueryFallsBackToColumnMeans) {
  // Reference rows observe only columns {0, 1}; the query observes only
  // columns {2, 3}.
  const size_t n = 12, d = 4;
  Matrix values(n, d), mask(n, d);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      values(i, j) = rng.Uniform();
      mask(i, j) = 1.0;
    }
  }
  Dataset train("ref", values, mask, {});
  KnnImputer knn;
  ASSERT_TRUE(knn.Fit(train).ok());

  Matrix qv(1, d), qm(1, d);
  qv(0, 2) = 0.7;
  qv(0, 3) = 0.4;
  qm(0, 2) = 1.0;
  qm(0, 3) = 1.0;
  Dataset query("query", qv, qm, {});
  const Matrix rec = knn.Reconstruct(query);
  const std::vector<double> means = ObservedColumnMeans(train);
  for (size_t j = 0; j < d; ++j) {
    EXPECT_DOUBLE_EQ(rec(0, j), means[j]) << "column " << j;
  }
}

TEST(MiceImputerTest, RecoversLinearStructure) {
  Bench b = MakeBench();
  MeanImputer mean;
  MiceImputer mice;
  const double rmse_mean = RunRmse(mean, b);
  const double rmse_mice = RunRmse(mice, b);
  // Linear chained regression is the right model class here: big win.
  EXPECT_LT(rmse_mice, 0.5 * rmse_mean);
}

TEST(MiceImputerTest, HandlesFullyObservedData) {
  Rng rng(2);
  Dataset d = Dataset::Complete("c", rng.UniformMatrix(50, 3, 0, 1));
  MiceImputer mice;
  EXPECT_TRUE(mice.Fit(d).ok());
  Matrix rec = mice.Reconstruct(d);
  EXPECT_EQ(rec.rows(), 50u);
}

TEST(TreeTest, FitsStepFunction) {
  Rng rng(3);
  const size_t n = 300;
  Matrix x(n, 1);
  std::vector<double> y(n);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    y[i] = x(i, 0) > 0.5 ? 2.0 : -1.0;
    idx[i] = i;
  }
  RegressionTree tree;
  tree.Fit(x, y, idx, rng);
  double row_lo = 0.2, row_hi = 0.8;
  EXPECT_NEAR(tree.Predict(&row_lo), -1.0, 0.1);
  EXPECT_NEAR(tree.Predict(&row_hi), 2.0, 0.1);
}

TEST(TreeTest, RespectsMinLeaf) {
  Rng rng(4);
  TreeOptions opts;
  opts.min_leaf = 50;
  opts.max_depth = 10;
  const size_t n = 100;
  Matrix x = rng.UniformMatrix(n, 2, 0, 1);
  std::vector<double> y(n);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0);
    idx[i] = i;
  }
  RegressionTree tree(opts);
  tree.Fit(x, y, idx, rng);
  // min_leaf 50 of 100 rows allows at most one split -> ≤ 3 nodes.
  EXPECT_LE(tree.num_nodes(), 3u);
}

TEST(TreeTest, ConstantTargetGivesLeaf) {
  Rng rng(5);
  Matrix x = rng.UniformMatrix(50, 2, 0, 1);
  std::vector<double> y(50, 7.0);
  std::vector<size_t> idx(50);
  for (size_t i = 0; i < 50; ++i) idx[i] = i;
  RegressionTree tree;
  tree.Fit(x, y, idx, rng);
  double row[2] = {0.3, 0.6};
  EXPECT_DOUBLE_EQ(tree.Predict(row), 7.0);
}

TEST(ForestTest, AveragingReducesVariance) {
  Rng rng(6);
  const size_t n = 400;
  Matrix x = rng.UniformMatrix(n, 3, 0, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = std::sin(4 * x(i, 0)) + x(i, 1) + rng.Normal(0, 0.1);
  }
  RandomForestOptions fo;
  fo.num_trees = 30;
  RandomForest forest(fo);
  forest.Fit(x, y);
  double mse = 0;
  for (size_t i = 0; i < n; ++i) {
    const double e = forest.Predict(x.row_data(i)) - y[i];
    mse += e * e;
  }
  mse /= n;
  EXPECT_LT(mse, 0.1);
}

TEST(GbdtTest, BoostingImprovesOverBase) {
  Rng rng(7);
  const size_t n = 300;
  Matrix x = rng.UniformMatrix(n, 2, 0, 1);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = 3.0 * x(i, 0) - x(i, 1);
  GbdtOptions o;
  o.num_rounds = 40;
  GbdtRegressor gbdt(o);
  gbdt.Fit(x, y);
  double mse = 0, var = 0, mean = 0;
  for (double v : y) mean += v;
  mean /= n;
  for (size_t i = 0; i < n; ++i) {
    const double e = gbdt.Predict(x.row_data(i)) - y[i];
    mse += e * e;
    var += (y[i] - mean) * (y[i] - mean);
  }
  EXPECT_LT(mse, 0.05 * var);
}

TEST(MissForestTest, BeatsMean) {
  Bench b = MakeBench();
  MeanImputer mean;
  MissForestImputerOptions o;
  o.forest.num_trees = 20;  // fast test config
  o.max_iters = 3;
  MissForestImputer mf(o);
  const double rmse_mean = RunRmse(mean, b);
  const double rmse_mf = RunRmse(mf, b);
  EXPECT_LT(rmse_mf, 0.7 * rmse_mean);
}

TEST(BaranTest, BeatsMean) {
  Bench b = MakeBench();
  MeanImputer mean;
  BaranImputerOptions o;
  o.gbdt.num_rounds = 25;
  BaranImputer baran(o);
  const double rmse_mean = RunRmse(mean, b);
  const double rmse_baran = RunRmse(baran, b);
  EXPECT_LT(rmse_baran, 0.7 * rmse_mean);
}

TEST(MedianImputerTest, MedianForNumericModeForBinary) {
  Matrix x{{1.0, 1.0}, {2.0, 1.0}, {100.0, 0.0}, {0.0, 1.0}};
  Matrix m{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {0.0, 1.0}};
  std::vector<ColumnMeta> cols(2);
  cols[0] = {"num", ColumnKind::kNumeric, 0};
  cols[1] = {"bin", ColumnKind::kBinary, 0};
  Dataset d("med", x, m, cols);
  MedianImputer imp;
  ASSERT_TRUE(imp.Fit(d).ok());
  Matrix rec = imp.Reconstruct(d);
  EXPECT_DOUBLE_EQ(rec(0, 0), 2.0);  // median of {1,2,100}; robust to 100
  EXPECT_DOUBLE_EQ(rec(0, 1), 1.0);  // mode of {1,1,0,1}
}

TEST(MedianImputerTest, RobustToOutliersWhereMeanIsNot) {
  Rng rng(5);
  Matrix x(200, 1);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = i < 190 ? rng.Uniform(0.4, 0.6) : 1000.0;  // 5% outliers
  }
  Dataset d = InjectMcar(Dataset::Complete("rob", x), 0.3, rng);
  MedianImputer med;
  ASSERT_TRUE(med.Fit(d).ok());
  const double fill = med.Reconstruct(d)(0, 0);
  EXPECT_GT(fill, 0.3);
  EXPECT_LT(fill, 0.7);  // the mean would sit near 25+
}

}  // namespace
}  // namespace scis
