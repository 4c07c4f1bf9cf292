#include "ot/masked_cost.h"

#include "common/check.h"
#include "kernels/elementwise.h"
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

Matrix MaskedOtGradWrtA(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb) {
  SCIS_CHECK_EQ(plan.rows(), a.rows());
  SCIS_CHECK_EQ(plan.cols(), b.rows());
  const size_t n = a.rows(), m = b.rows(), d = a.cols();
  Matrix grad(n, d);
  // Each gradient row depends only on plan row i — disjoint writes, so the
  // row loop parallelizes with bit-identical per-row arithmetic.
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, m * d),
                       [&](size_t rb, size_t re) {
    for (size_t i = rb; i < re; ++i) {
      const double* ai = a.row_data(i);
      const double* mi = ma.row_data(i);
      const double* pi = plan.row_data(i);
      double* gi = grad.row_data(i);
      // Σ_j P_ij, to factor the m_i⊙a_i term out of the j-loop.
      const double prow = kernels::Sum(pi, m);
      for (size_t j = 0; j < m; ++j) {
        const double pij = pi[j];
        if (pij == 0.0) continue;
        kernels::ScaledMulAdd(-pij, mb.row_data(j), b.row_data(j), gi, d);
      }
      kernels::MaskedGradFinish(mi, ai, prow, gi, d);
    }
  });
  return grad;
}

Matrix MaskedOtGradWrtB(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb) {
  // Reuse the A-side kernel on the transposed problem.
  return MaskedOtGradWrtA(Transpose(plan), b, mb, a, ma);
}

}  // namespace scis
