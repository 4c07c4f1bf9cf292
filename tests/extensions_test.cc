// Tests for the library extensions: the row-wise autodiff ops behind the
// exact IWAE bound, and one-hot encoding.
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/grad_check.h"
#include "autodiff/tape.h"
#include "data/encoding.h"
#include "models/mean_imputer.h"
#include "models/vae_imputers.h"
#include "tensor/rng.h"

namespace scis {
namespace {

void CheckGradient(const Matrix& x0,
                   const std::function<Var(Tape&, Var)>& build,
                   double tol = 1e-6) {
  Tape tape;
  Var x = tape.Leaf(x0);
  Var loss = build(tape, x);
  tape.Backward(loss);
  Matrix analytic = x.grad();
  auto f = [&](const Matrix& xv) {
    Tape t2;
    Var x2 = t2.Leaf(xv);
    return build(t2, x2).value()(0, 0);
  };
  EXPECT_LT(MaxGradError(f, x0, analytic), tol);
}

TEST(RowOpsTest, RowSumValueAndGradient) {
  Matrix x0{{1, 2, 3}, {4, 5, 6}};
  Tape tape;
  Var x = tape.Leaf(x0);
  Var rs = RowSum(x);
  EXPECT_TRUE(rs.value().AllClose(Matrix{{6}, {15}}));
  CheckGradient(x0, [](Tape&, Var v) { return Sum(Square(RowSum(v))); });
}

TEST(RowOpsTest, RowLogSumExpValue) {
  Matrix x{{0.0, 0.0}, {1.0, 3.0}};
  Tape tape;
  Var v = tape.Leaf(x);
  Matrix out = RowLogSumExp(v).value();
  EXPECT_NEAR(out(0, 0), std::log(2.0), 1e-12);
  EXPECT_NEAR(out(1, 0), 3.0 + std::log1p(std::exp(-2.0)), 1e-12);
}

TEST(RowOpsTest, RowLogSumExpGradientIsSoftmax) {
  Rng rng(1);
  Matrix x0 = rng.NormalMatrix(3, 4);
  CheckGradient(x0, [](Tape&, Var v) { return Sum(RowLogSumExp(v)); });
  // Extreme values must not overflow.
  Matrix big{{1000.0, -1000.0}};
  Tape tape;
  Var v = tape.Leaf(big);
  Var out = Sum(RowLogSumExp(v));
  EXPECT_NEAR(out.value()(0, 0), 1000.0, 1e-9);
  tape.Backward(out);
  EXPECT_NEAR(v.grad()(0, 0), 1.0, 1e-9);
}

TEST(MiwaeExactTest, IwaeBoundTrainsAndImputes) {
  Rng rng(2);
  const size_t n = 200;
  Matrix x(n, 4);
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Uniform();
    x(i, 0) = z;
    x(i, 1) = 1 - z;
    x(i, 2) = 0.5 * z + 0.2;
    x(i, 3) = z * z;
  }
  Dataset complete = Dataset::Complete("iwae", x);
  Rng mrng(3);
  Matrix mask = mrng.BernoulliMatrix(n, 4, 0.7);
  Matrix vals = Mul(x, mask);
  Dataset data("iwae", vals, mask, {});

  MiwaeImputerOptions o;
  o.deep.epochs = 25;
  o.deep.batch_size = 64;
  o.importance_samples = 4;
  MiwaeImputer imp(o);
  ASSERT_TRUE(imp.Fit(data).ok());
  Matrix rec = imp.Reconstruct(data);
  for (size_t k = 0; k < rec.size(); ++k) {
    EXPECT_TRUE(std::isfinite(rec.data()[k]));
  }
  // Sanity accuracy vs mean-fill on the artificially missing cells.
  MeanImputer mean;
  ASSERT_TRUE(mean.Fit(data).ok());
  double e_iwae = 0, e_mean = 0;
  size_t cnt = 0;
  Matrix mean_rec = mean.Reconstruct(data);
  for (size_t k = 0; k < rec.size(); ++k) {
    if (mask.data()[k] == 0.0) {
      e_iwae += std::pow(rec.data()[k] - x.data()[k], 2);
      e_mean += std::pow(mean_rec.data()[k] - x.data()[k], 2);
      ++cnt;
    }
  }
  EXPECT_LT(e_iwae, 1.2 * e_mean);
}

TEST(OneHotTest, TransformRoundTrip) {
  Matrix values{{0.3, 2.0}, {0.7, 0.0}, {0.1, 1.0}};
  Matrix mask{{1.0, 1.0}, {1.0, 1.0}, {1.0, 0.0}};
  std::vector<ColumnMeta> cols(2);
  cols[0] = {"num", ColumnKind::kNumeric, 0};
  cols[1] = {"cat", ColumnKind::kCategorical, 3};
  Dataset d("t", values, mask, cols);
  OneHotEncoder enc;
  ASSERT_TRUE(enc.Fit(d).ok());
  EXPECT_EQ(enc.encoded_cols(), 4u);  // 1 numeric + 3 indicators
  Result<Dataset> t = enc.Transform(d);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_cols(), 4u);
  // Row 0: category 2 -> indicators (0,0,1).
  EXPECT_DOUBLE_EQ(t->values()(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(t->values()(0, 3), 1.0);
  // Row 2: category missing -> all indicator cells missing.
  EXPECT_FALSE(t->IsObserved(2, 1));
  EXPECT_FALSE(t->IsObserved(2, 3));
  EXPECT_TRUE(t->Validate().ok());

  Result<Matrix> back = enc.InverseTransform(t->values());
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ((*back)(0, 1), 2.0);
  EXPECT_DOUBLE_EQ((*back)(1, 1), 0.0);
  EXPECT_DOUBLE_EQ((*back)(0, 0), 0.3);
}

TEST(OneHotTest, ArgmaxDecodesSoftIndicators) {
  std::vector<ColumnMeta> cols(1);
  cols[0] = {"cat", ColumnKind::kCategorical, 3};
  Dataset d("t", Matrix{{1.0}}, Matrix{{1.0}}, cols);
  OneHotEncoder enc;
  ASSERT_TRUE(enc.Fit(d).ok());
  Matrix soft{{0.2, 0.5, 0.3}};
  Result<Matrix> back = enc.InverseTransform(soft);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ((*back)(0, 0), 1.0);
}

TEST(OneHotTest, RejectsBadCodes) {
  std::vector<ColumnMeta> cols(1);
  cols[0] = {"cat", ColumnKind::kCategorical, 2};
  Dataset d("t", Matrix{{5.0}}, Matrix{{1.0}}, cols);
  OneHotEncoder enc;
  ASSERT_TRUE(enc.Fit(d).ok());
  EXPECT_FALSE(enc.Transform(d).ok());
  cols[0].num_categories = 1;
  Dataset d2("t", Matrix{{0.0}}, Matrix{{1.0}}, cols);
  OneHotEncoder enc2;
  EXPECT_FALSE(enc2.Fit(d2).ok());
}

}  // namespace
}  // namespace scis
