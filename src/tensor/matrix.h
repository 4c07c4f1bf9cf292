// Dense row-major matrix of doubles: the numeric workhorse under the
// autodiff tape, optimal-transport solver, and every imputation model.
// Kept deliberately simple (no views, no expression templates): row-major
// contiguous storage so hot kernels in matrix_ops.cc vectorize well.
#ifndef SCIS_TENSOR_MATRIX_H_
#define SCIS_TENSOR_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace scis {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Row-major literal: Matrix({{1,2},{3,4}}).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0);
  }
  static Matrix Full(size_t rows, size_t cols, double v) {
    return Matrix(rows, cols, v);
  }
  static Matrix Identity(size_t n);
  // Wraps an existing flat row-major buffer (copied).
  static Matrix FromFlat(size_t rows, size_t cols, std::vector<double> flat);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t i, size_t j) {
    SCIS_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    SCIS_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  // Flat element access (row-major order), used by optimizers that treat
  // parameters as one long vector.
  double& operator[](size_t k) {
    SCIS_DCHECK(k < data_.size());
    return data_[k];
  }
  double operator[](size_t k) const {
    SCIS_DCHECK(k < data_.size());
    return data_[k];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_data(size_t i) { return data_.data() + i * cols_; }
  const double* row_data(size_t i) const { return data_.data() + i * cols_; }

  // Copy of a row as a plain vector.
  std::vector<double> Row(size_t i) const;

  // Returns rows [r0, r1) as a new matrix.
  Matrix RowRange(size_t r0, size_t r1) const;
  // Gathers the given rows (indices may repeat) into a new matrix.
  Matrix GatherRows(const std::vector<size_t>& idx) const;

  void Fill(double v) { data_.assign(data_.size(), v); }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Exact elementwise equality (tests) and tolerance-based comparison.
  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }
  bool AllClose(const Matrix& other, double atol = 1e-9) const;

  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

}  // namespace scis

#endif  // SCIS_TENSOR_MATRIX_H_
