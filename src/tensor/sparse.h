// CSR sparse matrix: the similarity-graph substrate for the GINN imputer
// (symmetric kNN adjacency, degree-normalized as in GCNs; built by
// index::BuildKnnGraph).
#ifndef SCIS_TENSOR_SPARSE_H_
#define SCIS_TENSOR_SPARSE_H_

#include <vector>

#include "tensor/matrix.h"

namespace scis {

struct Edge {
  size_t row, col;
  double weight;
};

class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}
  // Builds CSR from an (unsorted) edge list; duplicate entries are summed.
  SparseMatrix(size_t rows, size_t cols, std::vector<Edge> edges);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  // Dense product: this (n,m) * dense (m,k) -> (n,k).
  Matrix MatMulDense(const Matrix& dense) const;
  // thisᵀ * dense — used in backward passes.
  Matrix TransposeMatMulDense(const Matrix& dense) const;

  Matrix ToDense() const;

  // Row iteration.
  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  size_t rows_, cols_;
  std::vector<size_t> row_ptr_;   // rows_+1 entries
  std::vector<size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace scis

#endif  // SCIS_TENSOR_SPARSE_H_
