#include "ot/masked_cost.h"

#include <vector>

#include "common/check.h"
#include "kernels/elementwise.h"
#include "kernels/sinkhorn_kernels.h"
#include "runtime/parallel_for.h"
#include "tensor/matrix_ops.h"

namespace scis {

Matrix MaskedCostMatrix(const Matrix& a, const Matrix& ma, const Matrix& b,
                        const Matrix& mb) {
  SCIS_CHECK(a.SameShape(ma));
  SCIS_CHECK(b.SameShape(mb));
  SCIS_CHECK_EQ(a.cols(), b.cols());
  return PairwiseSquaredDistances(Mul(a, ma), Mul(b, mb));
}

namespace {

// The envelope gradient in the rows of x against the rows of y, whose
// plan entry for the pair (i, j) sits at plan[i·rs + j·cs]. Each gradient
// row depends only on its own plan line, so the row loop parallelizes with
// disjoint writes and bit-identical per-row arithmetic.
Matrix EnvelopeGrad(const Matrix& plan, bool by_columns, const Matrix& x,
                    const Matrix& mx, const Matrix& y, const Matrix& my) {
  const size_t n = x.rows(), m = y.rows(), d = x.cols();
  const size_t rs = by_columns ? 1 : plan.cols();
  const size_t cs = by_columns ? plan.cols() : 1;
  Matrix grad(n, d);
  std::vector<double> totals(n);
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, m * d),
                       [&](size_t rb, size_t re) {
    kernels::MaskedGradRows(plan.data(), rs, cs, my.data(), y.data(), m, d,
                            rb, re, grad.data());
    // Σ_j P_ij, to factor the m_i⊙x_i term out of the j-sum.
    if (by_columns) {
      kernels::ColumnSums(plan.data(), m, n, rb, re, totals.data());
    } else {
      for (size_t i = rb; i < re; ++i) {
        totals[i] = kernels::Sum(plan.row_data(i), m);
      }
    }
    for (size_t i = rb; i < re; ++i) {
      kernels::MaskedGradFinish(mx.row_data(i), x.row_data(i), totals[i],
                                grad.row_data(i), d);
    }
  });
  return grad;
}

}  // namespace

Matrix MaskedOtGradWrtA(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb) {
  SCIS_CHECK_EQ(plan.rows(), a.rows());
  SCIS_CHECK_EQ(plan.cols(), b.rows());
  return EnvelopeGrad(plan, /*by_columns=*/false, a, ma, b, mb);
}

Matrix MaskedOtGradWrtB(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb) {
  SCIS_CHECK_EQ(plan.rows(), a.rows());
  SCIS_CHECK_EQ(plan.cols(), b.rows());
  return EnvelopeGrad(plan, /*by_columns=*/true, b, mb, a, ma);
}

}  // namespace scis
