#include "tensor/matrix_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "runtime/parallel_for.h"

namespace scis {

namespace {
constexpr double kLogFloor = 1e-300;

// Elementwise kernels parallelize over disjoint flat ranges (disjoint writes,
// per-element arithmetic unchanged → bit-identical at any thread count).
// Scalar reductions (Sum, Dot, norms) go through the fixed-lane kernels in
// src/kernels: their association is a function of the span length alone, so
// they stay bit-identical at any thread count while vectorizing. (This
// re-associated them once relative to the pre-kernel seed numerics; the
// goldens were regenerated for that drift.)
Matrix BinaryOp(const Matrix& a, const Matrix& b, double (*op)(double, double)) {
  SCIS_CHECK_MSG(a.SameShape(b), "elementwise op shape mismatch");
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 1),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k)
                           po[k] = op(pa[k], pb[k]);
                       });
  return out;
}
// Packs the right-hand side into column panels (parallel over panels), the
// once-per-multiply setup both packed matmul kernels share.
std::vector<double> PackRhs(const Matrix& b, size_t k, size_t n) {
  std::vector<double> bp(kernels::PackedSize(k, n));
  const size_t tiles = kernels::NumPanels(n);
  runtime::ParallelFor(0, tiles,
                       runtime::GrainForWork(tiles, k * kernels::kColTile),
                       [&](size_t t0, size_t t1) {
                         kernels::PackPanels(b.data(), k, n, t0, t1,
                                             bp.data());
                       });
  return bp;
}

}  // namespace

// The three matmul variants run the register-tiled kernels from
// src/kernels/matmul.h over output-row chunks. Grains are shape-derived and
// rounded to the row-tile size so chunk boundaries coincide with tile
// boundaries; per-element accumulation order is unchanged from the historic
// kernels (see matmul.h for the exact determinism/drift statement).
Matrix MatMul(const Matrix& a, const Matrix& b) {
  SCIS_CHECK_MSG(a.cols() == b.rows(), "MatMul inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  const size_t m = a.rows(), k = b.rows(), n = b.cols();
  const std::vector<double> bp = PackRhs(b, k, n);
  const size_t grain =
      kernels::RowAlignedGrain(runtime::GrainForWork(m, k * n));
  runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
    kernels::MatMulRowsPacked(a.data(), bp.data(), out.data(), i0, i1, k, n);
  });
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  SCIS_CHECK_MSG(a.rows() == b.rows(), "MatMulTransA dimension mismatch");
  Matrix out(a.cols(), b.cols());
  const size_t m = a.cols(), k = a.rows(), n = b.cols();
  const std::vector<double> bp = PackRhs(b, k, n);
  const size_t grain =
      kernels::RowAlignedGrain(runtime::GrainForWork(m, k * n));
  runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
    kernels::MatMulTransARowsPacked(a.data(), m, bp.data(), out.data(), i0, i1,
                                    k, n);
  });
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  SCIS_CHECK_MSG(a.cols() == b.cols(), "MatMulTransB dimension mismatch");
  Matrix out(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  const size_t grain =
      kernels::RowAlignedGrain(runtime::GrainForWork(m, k * n));
  runtime::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
    kernels::MatMulTransBRows(a.data(), b.data(), out.data(), i0, i1, k, n);
  });
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  runtime::ParallelFor(0, a.rows(), runtime::GrainForWork(a.rows(), a.cols()),
                       [&](size_t r0, size_t r1) {
    kernels::TransposeScaleRows(a.data(), a.rows(), a.cols(), 1.0, out.data(),
                                r0, r1);
  });
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  return BinaryOp(a, b, [](double x, double y) { return x + y; });
}
Matrix Sub(const Matrix& a, const Matrix& b) {
  return BinaryOp(a, b, [](double x, double y) { return x - y; });
}
Matrix Mul(const Matrix& a, const Matrix& b) {
  return BinaryOp(a, b, [](double x, double y) { return x * y; });
}

void AddInPlace(Matrix& a, const Matrix& b) {
  SCIS_CHECK(a.SameShape(b));
  double* pa = a.data();
  const double* pb = b.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 1),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) pa[k] += pb[k];
                       });
}
void SubInPlace(Matrix& a, const Matrix& b) {
  SCIS_CHECK(a.SameShape(b));
  double* pa = a.data();
  const double* pb = b.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 1),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) pa[k] -= pb[k];
                       });
}
void MulInPlace(Matrix& a, const Matrix& b) {
  SCIS_CHECK(a.SameShape(b));
  double* pa = a.data();
  const double* pb = b.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 1),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) pa[k] *= pb[k];
                       });
}
void AxpyInPlace(Matrix& a, double alpha, const Matrix& b) {
  SCIS_CHECK(a.SameShape(b));
  double* pa = a.data();
  const double* pb = b.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 1),
                       [&](size_t kb, size_t ke) {
                         kernels::Axpy(alpha, pb + kb, pa + kb, ke - kb);
                       });
}

Matrix AddScalar(const Matrix& a, double s) {
  Matrix out = a;
  double* p = out.data();
  runtime::ParallelFor(0, out.size(), runtime::GrainForWork(out.size(), 1),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) p[k] += s;
                       });
  return out;
}
Matrix MulScalar(const Matrix& a, double s) {
  Matrix out = a;
  MulScalarInPlace(out, s);
  return out;
}
void MulScalarInPlace(Matrix& a, double s) {
  double* p = a.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 1),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) p[k] *= s;
                       });
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  SCIS_CHECK(row.rows() == 1 && row.cols() == a.cols());
  Matrix out = a;
  runtime::ParallelFor(0, a.rows(), runtime::GrainForWork(a.rows(), a.cols()),
                       [&](size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      double* p = out.row_data(i);
      const double* r = row.data();
      for (size_t j = 0; j < a.cols(); ++j) p[j] += r[j];
    }
  });
  return out;
}

namespace {
// Inlined-callable Map: cheap per-element lambdas (relu, square, clamp)
// compile to straight loops here instead of paying a std::function call per
// element. The public std::function Map below routes through this too.
template <typename F>
Matrix UnaryOp(const Matrix& a, F&& f) {
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  double* po = out.data();
  // Transcendental maps (exp, log, sigmoid) dominate NN activations; assume
  // a few ops per element so mid-sized batches still fan out.
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 8),
                       [&](size_t kb, size_t ke) {
                         for (size_t k = kb; k < ke; ++k) po[k] = f(pa[k]);
                       });
  return out;
}
}  // namespace

Matrix Map(const Matrix& a, const std::function<double(double)>& f) {
  return UnaryOp(a, f);
}

Matrix Sigmoid(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  double* po = out.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 8),
                       [&](size_t kb, size_t ke) {
                         kernels::SigmoidArray(pa + kb, po + kb, ke - kb);
                       });
  return out;
}
Matrix Relu(const Matrix& a) {
  return UnaryOp(a, [](double x) { return x > 0 ? x : 0.0; });
}
Matrix Tanh(const Matrix& a) {
  return UnaryOp(a, [](double x) { return std::tanh(x); });
}
Matrix Exp(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  double* po = out.data();
  runtime::ParallelFor(0, a.size(), runtime::GrainForWork(a.size(), 8),
                       [&](size_t kb, size_t ke) {
                         kernels::ExpArray(pa + kb, po + kb, ke - kb);
                       });
  return out;
}
Matrix Log(const Matrix& a) {
  return UnaryOp(a, [](double x) { return std::log(std::max(x, kLogFloor)); });
}
Matrix Square(const Matrix& a) {
  return UnaryOp(a, [](double x) { return x * x; });
}
Matrix Clamp(const Matrix& a, double lo, double hi) {
  return UnaryOp(a, [lo, hi](double x) { return std::clamp(x, lo, hi); });
}

double Sum(const Matrix& a) { return kernels::Sum(a.data(), a.size()); }
double Mean(const Matrix& a) {
  SCIS_CHECK_GT(a.size(), 0u);
  return Sum(a) / static_cast<double>(a.size());
}
double MinValue(const Matrix& a) {
  SCIS_CHECK_GT(a.size(), 0u);
  return *std::min_element(a.data(), a.data() + a.size());
}
double MaxValue(const Matrix& a) {
  SCIS_CHECK_GT(a.size(), 0u);
  return *std::max_element(a.data(), a.data() + a.size());
}
double FrobeniusNorm(const Matrix& a) {
  return std::sqrt(kernels::SquaredNorm(a.data(), a.size()));
}
double Dot(const Matrix& a, const Matrix& b) {
  SCIS_CHECK(a.SameShape(b));
  return kernels::Dot(a.data(), b.data(), a.size());
}

Matrix RowSum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  runtime::ParallelFor(0, a.rows(), runtime::GrainForWork(a.rows(), a.cols()),
                       [&](size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      out(i, 0) = kernels::Sum(a.row_data(i), a.cols());
    }
  });
  return out;
}
Matrix ColSum(const Matrix& a) {
  Matrix out(1, a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* p = a.row_data(i);
    double* o = out.data();
    for (size_t j = 0; j < a.cols(); ++j) o[j] += p[j];
  }
  return out;
}
Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  SCIS_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    std::copy(a.row_data(i), a.row_data(i) + a.cols(), out.row_data(i));
    std::copy(b.row_data(i), b.row_data(i) + b.cols(),
              out.row_data(i) + a.cols());
  }
  return out;
}

namespace {

// |a_i|² per row.
std::vector<double> RowSquaredNorms(const Matrix& a) {
  const size_t n = a.rows(), d = a.cols();
  std::vector<double> norms(n, 0.0);
  runtime::ParallelFor(0, n, runtime::GrainForWork(n, d),
                       [&](size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      norms[i] = kernels::SquaredNorm(a.row_data(i), d);
    }
  });
  return norms;
}

}  // namespace

Matrix PairwiseSquaredDistances(const Matrix& a, const Matrix& b) {
  SCIS_CHECK_EQ(a.cols(), b.cols());
  const size_t n = a.rows(), m = b.rows(), d = a.cols();
  const bool self = &a == &b;
  const std::vector<double> a2 = RowSquaredNorms(a);
  const std::vector<double> b2 =
      self ? std::vector<double>() : RowSquaredNorms(b);
  const double* b2p = self ? a2.data() : b2.data();
  const Matrix bt = Transpose(b);
  Matrix out(n, m);
  runtime::ParallelFor(
      0, n, kernels::RowAlignedGrain(runtime::GrainForWork(n, d * m)),
      [&](size_t i0, size_t i1) {
        kernels::SquaredDistanceRows(a.data(), bt.data(), a2.data(), b2p,
                                     out.data(), i0, i1, d, m);
      });
  return out;
}

}  // namespace scis
