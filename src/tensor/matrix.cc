#include "tensor/matrix.h"

#include <cmath>
#include <sstream>

namespace scis {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    SCIS_CHECK_EQ(r.size(), cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromFlat(size_t rows, size_t cols, std::vector<double> flat) {
  SCIS_CHECK_EQ(flat.size(), rows * cols);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(flat);
  return m;
}

std::vector<double> Matrix::Row(size_t i) const {
  SCIS_CHECK_LT(i, rows_);
  return std::vector<double>(row_data(i), row_data(i) + cols_);
}

Matrix Matrix::RowRange(size_t r0, size_t r1) const {
  SCIS_CHECK(r0 <= r1 && r1 <= rows_);
  Matrix out(r1 - r0, cols_);
  std::copy(row_data(r0), row_data(r0) + (r1 - r0) * cols_, out.data());
  return out;
}

Matrix Matrix::GatherRows(const std::vector<size_t>& idx) const {
  Matrix out(idx.size(), cols_);
  for (size_t i = 0; i < idx.size(); ++i) {
    SCIS_CHECK_LT(idx[i], rows_);
    std::copy(row_data(idx[i]), row_data(idx[i]) + cols_, out.row_data(i));
  }
  return out;
}

bool Matrix::AllClose(const Matrix& other, double atol) const {
  if (!SameShape(other)) return false;
  for (size_t k = 0; k < data_.size(); ++k) {
    if (std::abs(data_[k] - other.data_[k]) > atol) return false;
  }
  return true;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")[";
  size_t rshow = std::min<size_t>(rows_, max_rows);
  size_t cshow = std::min<size_t>(cols_, max_cols);
  for (size_t i = 0; i < rshow; ++i) {
    os << (i ? ", [" : "[");
    for (size_t j = 0; j < cshow; ++j) {
      if (j) os << ", ";
      os << (*this)(i, j);
    }
    if (cshow < cols_) os << ", ...";
    os << "]";
  }
  if (rshow < rows_) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace scis
