#include <gtest/gtest.h>

#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/sparse.h"

namespace scis {
namespace {

TEST(SparseTest, BuildAndDensify) {
  SparseMatrix sp(2, 3, {{0, 1, 2.0}, {1, 2, -1.0}, {0, 1, 3.0}});
  EXPECT_EQ(sp.nnz(), 2u);  // duplicates coalesce
  Matrix d = sp.ToDense();
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(SparseTest, MatMulMatchesDense) {
  Rng rng(1);
  std::vector<Edge> edges;
  for (int i = 0; i < 20; ++i) {
    edges.push_back({rng.UniformIndex(6), rng.UniformIndex(5),
                     rng.Normal()});
  }
  SparseMatrix sp(6, 5, edges);
  Matrix x = rng.NormalMatrix(5, 4);
  EXPECT_TRUE(sp.MatMulDense(x).AllClose(MatMul(sp.ToDense(), x), 1e-12));
  Matrix y = rng.NormalMatrix(6, 3);
  EXPECT_TRUE(sp.TransposeMatMulDense(y).AllClose(
      MatMul(Transpose(sp.ToDense()), y), 1e-12));
}

}  // namespace
}  // namespace scis
