#include "tensor/sparse.h"

#include <map>

namespace scis {

SparseMatrix::SparseMatrix(size_t rows, size_t cols, std::vector<Edge> edges)
    : rows_(rows), cols_(cols) {
  // Coalesce duplicates.
  std::map<std::pair<size_t, size_t>, double> coalesced;
  for (const Edge& e : edges) {
    SCIS_CHECK(e.row < rows && e.col < cols);
    coalesced[{e.row, e.col}] += e.weight;
  }
  row_ptr_.assign(rows + 1, 0);
  for (const auto& [rc, w] : coalesced) ++row_ptr_[rc.first + 1];
  for (size_t i = 0; i < rows; ++i) row_ptr_[i + 1] += row_ptr_[i];
  col_idx_.resize(coalesced.size());
  values_.resize(coalesced.size());
  size_t k = 0;
  for (const auto& [rc, w] : coalesced) {
    col_idx_[k] = rc.second;
    values_[k] = w;
    ++k;
  }
}

Matrix SparseMatrix::MatMulDense(const Matrix& dense) const {
  SCIS_CHECK_EQ(cols_, dense.rows());
  Matrix out(rows_, dense.cols());
  for (size_t i = 0; i < rows_; ++i) {
    double* orow = out.row_data(i);
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const double w = values_[p];
      const double* drow = dense.row_data(col_idx_[p]);
      for (size_t c = 0; c < dense.cols(); ++c) orow[c] += w * drow[c];
    }
  }
  return out;
}

Matrix SparseMatrix::TransposeMatMulDense(const Matrix& dense) const {
  SCIS_CHECK_EQ(rows_, dense.rows());
  Matrix out(cols_, dense.cols());
  for (size_t i = 0; i < rows_; ++i) {
    const double* drow = dense.row_data(i);
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const double w = values_[p];
      double* orow = out.row_data(col_idx_[p]);
      for (size_t c = 0; c < dense.cols(); ++c) orow[c] += w * drow[c];
    }
  }
  return out;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      out(i, col_idx_[p]) += values_[p];
    }
  }
  return out;
}

}  // namespace scis
