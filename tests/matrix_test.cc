#include <gtest/gtest.h>

#include <cmath>

#include "tensor/linalg.h"
#include "tensor/matrix.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace scis {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m[1], 9.0);  // row-major flat index
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1);
  EXPECT_DOUBLE_EQ(id(0, 1), 0);
  EXPECT_DOUBLE_EQ(Sum(id), 3.0);
}

TEST(MatrixTest, RowColAccessors) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
}

TEST(MatrixTest, RangesAndGather) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix rr = m.RowRange(1, 3);
  EXPECT_EQ(rr.rows(), 2u);
  EXPECT_DOUBLE_EQ(rr(0, 0), 4);
  Matrix g = m.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_DOUBLE_EQ(g(0, 0), 7);
  EXPECT_DOUBLE_EQ(g(1, 0), 1);
  EXPECT_DOUBLE_EQ(g(2, 2), 9);
}

TEST(MatrixTest, AllClose) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0 + 1e-12, 2.0}};
  EXPECT_TRUE(a.AllClose(b, 1e-9));
  EXPECT_FALSE(a.AllClose(b, 1e-15));
  EXPECT_FALSE(a.AllClose(Matrix(2, 1)));
}

TEST(MatrixOpsTest, MatMulKnown) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(Matrix{{19, 22}, {43, 50}}));
}

TEST(MatrixOpsTest, TransposedProductsAgree) {
  Rng rng(3);
  Matrix a = rng.NormalMatrix(4, 6);
  Matrix b = rng.NormalMatrix(4, 3);
  EXPECT_TRUE(MatMulTransA(a, b).AllClose(MatMul(Transpose(a), b), 1e-12));
  Matrix c = rng.NormalMatrix(5, 6);
  EXPECT_TRUE(MatMulTransB(a, c).AllClose(MatMul(a, Transpose(c)), 1e-12));
}

TEST(MatrixOpsTest, ElementwiseBasics) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 2}, {2, 2}};
  EXPECT_TRUE(Add(a, b).AllClose(Matrix{{3, 4}, {5, 6}}));
  EXPECT_TRUE(Sub(a, b).AllClose(Matrix{{-1, 0}, {1, 2}}));
  EXPECT_TRUE(Mul(a, b).AllClose(Matrix{{2, 4}, {6, 8}}));
}

TEST(MatrixOpsTest, InPlaceVariantsMatch) {
  Matrix a{{1, 2}}, b{{3, 4}};
  Matrix c = a;
  AddInPlace(c, b);
  EXPECT_TRUE(c.AllClose(Add(a, b)));
  c = a;
  AxpyInPlace(c, 2.0, b);
  EXPECT_TRUE(c.AllClose(Matrix{{7, 10}}));
}

TEST(MatrixOpsTest, Broadcasts) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix row{{10, 20}};
  EXPECT_TRUE(AddRowBroadcast(a, row).AllClose(Matrix{{11, 22}, {13, 24}}));
}

TEST(MatrixOpsTest, MapsAndClamp) {
  Matrix a{{-1, 0, 2}};
  EXPECT_TRUE(Relu(a).AllClose(Matrix{{0, 0, 2}}));
  EXPECT_TRUE(Clamp(a, -0.5, 1.0).AllClose(Matrix{{-0.5, 0, 1}}));
  Matrix s = Sigmoid(Matrix{{0.0}});
  EXPECT_DOUBLE_EQ(s(0, 0), 0.5);
  // Sigmoid is overflow-safe for extreme inputs.
  EXPECT_NEAR(Sigmoid(Matrix{{1000.0}})(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(Matrix{{-1000.0}})(0, 0), 0.0, 1e-12);
}

TEST(MatrixOpsTest, LogIsFiniteAtZero) {
  Matrix z(1, 1);
  EXPECT_TRUE(std::isfinite(Log(z)(0, 0)));
}

TEST(MatrixOpsTest, Reductions) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(Sum(a), 10);
  EXPECT_DOUBLE_EQ(Mean(a), 2.5);
  EXPECT_DOUBLE_EQ(MinValue(a), 1);
  EXPECT_DOUBLE_EQ(MaxValue(a), 4);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(Dot(a, a), 30.0);
  EXPECT_TRUE(RowSum(a).AllClose(Matrix{{3}, {7}}));
  EXPECT_TRUE(ColSum(a).AllClose(Matrix{{4, 6}}));
}

TEST(MatrixOpsTest, Concat) {
  Matrix a{{1, 2}}, b{{3}};
  Matrix c = ConcatCols(a, b);
  EXPECT_TRUE(c.AllClose(Matrix{{1, 2, 3}}));
}

class PairwiseDistTest : public ::testing::TestWithParam<int> {};

TEST_P(PairwiseDistTest, MatchesNaive) {
  Rng rng(GetParam());
  const size_t n = 3 + GetParam() % 5, m = 2 + GetParam() % 7,
               d = 1 + GetParam() % 6;
  Matrix a = rng.NormalMatrix(n, d);
  Matrix b = rng.NormalMatrix(m, d);
  Matrix fast = PairwiseSquaredDistances(a, b);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < d; ++k) {
        const double diff = a(i, k) - b(j, k);
        acc += diff * diff;
      }
      EXPECT_NEAR(fast(i, j), acc, 1e-9);
      EXPECT_GE(fast(i, j), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PairwiseDistTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(LinalgTest, CholeskyFactorizes) {
  Matrix a{{4, 2}, {2, 3}};
  Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  Matrix rec = MatMulTransB(l.value(), l.value());
  EXPECT_TRUE(rec.AllClose(a, 1e-12));
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(LinalgTest, CholeskySolveKnownSystem) {
  Matrix a{{4, 2}, {2, 3}};
  Matrix b{{8}, {7}};
  Result<Matrix> x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(MatMul(a, x.value()).AllClose(b, 1e-10));
}

TEST(LinalgTest, RidgeRecoversLinearModel) {
  Rng rng(7);
  const size_t n = 200, d = 4;
  Matrix x = rng.NormalMatrix(n, d);
  Matrix w_true{{1.0}, {-2.0}, {0.5}, {3.0}};
  Matrix y = MatMul(x, w_true);
  Result<Matrix> w = RidgeSolve(x, y, 1e-8);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.value().AllClose(w_true, 1e-5));
}

TEST(LinalgTest, RidgeShrinksWithLargeAlpha) {
  Rng rng(8);
  Matrix x = rng.NormalMatrix(50, 3);
  Matrix y = rng.NormalMatrix(50, 1);
  Matrix w_small = RidgeSolve(x, y, 1e-6).value();
  Matrix w_big = RidgeSolve(x, y, 1e6).value();
  EXPECT_LT(FrobeniusNorm(w_big), FrobeniusNorm(w_small));
  EXPECT_LT(FrobeniusNorm(w_big), 1e-2);
}

}  // namespace
}  // namespace scis
