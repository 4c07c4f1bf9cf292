// Free-function kernels over Matrix. All functions allocate their result;
// the few in-place variants are suffixed InPlace and used on hot paths
// (Sinkhorn iterations, optimizer updates).
#ifndef SCIS_TENSOR_MATRIX_OPS_H_
#define SCIS_TENSOR_MATRIX_OPS_H_

#include <functional>

#include "tensor/matrix.h"

namespace scis {

// ---- products ----
Matrix MatMul(const Matrix& a, const Matrix& b);          // a(m,k) * b(k,n)
Matrix MatMulTransA(const Matrix& a, const Matrix& b);    // aᵀ * b
Matrix MatMulTransB(const Matrix& a, const Matrix& b);    // a * bᵀ
Matrix Transpose(const Matrix& a);

// ---- elementwise binary (shapes must match) ----
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Mul(const Matrix& a, const Matrix& b);  // Hadamard
void AddInPlace(Matrix& a, const Matrix& b);
void SubInPlace(Matrix& a, const Matrix& b);
void MulInPlace(Matrix& a, const Matrix& b);
// a += alpha * b  (axpy)
void AxpyInPlace(Matrix& a, double alpha, const Matrix& b);

// ---- scalar ----
Matrix AddScalar(const Matrix& a, double s);
Matrix MulScalar(const Matrix& a, double s);
void MulScalarInPlace(Matrix& a, double s);

// ---- broadcast: row is 1 x a.cols() ----
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);

// ---- maps ----
Matrix Map(const Matrix& a, const std::function<double(double)>& f);
Matrix Sigmoid(const Matrix& a);
Matrix Relu(const Matrix& a);
Matrix Tanh(const Matrix& a);
Matrix Exp(const Matrix& a);
Matrix Log(const Matrix& a);      // log(max(x, tiny)) to stay finite
Matrix Square(const Matrix& a);
Matrix Clamp(const Matrix& a, double lo, double hi);

// ---- reductions ----
double Sum(const Matrix& a);
double Mean(const Matrix& a);
double MinValue(const Matrix& a);
double MaxValue(const Matrix& a);
double FrobeniusNorm(const Matrix& a);
// Frobenius inner product <a, b> = tr(aᵀ b).
double Dot(const Matrix& a, const Matrix& b);
Matrix RowSum(const Matrix& a);   // (rows,1)
Matrix ColSum(const Matrix& a);   // (1,cols)

// ---- assembly ----
// Concatenates matrices left-to-right (same row count).
Matrix ConcatCols(const Matrix& a, const Matrix& b);

// Pairwise squared Euclidean distances between rows of a (n,d) and b (m,d),
// returned as (n,m): max(|a_i|² + |b_j|² − 2·a_i·b_j, 0), the Sinkhorn
// ground cost. One coordinate-major kernel (kernels::SquaredDistanceRows)
// builds every entry from the squared row norms and an ascending-p dot, so
// the self cost PairwiseSquaredDistances(a, a) is symmetric by
// construction, bit for bit; it also reuses a's norms for b.
Matrix PairwiseSquaredDistances(const Matrix& a, const Matrix& b);

}  // namespace scis

#endif  // SCIS_TENSOR_MATRIX_OPS_H_
