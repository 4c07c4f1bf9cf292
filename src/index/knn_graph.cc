#include "index/knn_graph.h"

#include <algorithm>
#include <cmath>

#include "index/ann_index.h"

namespace scis::index {

namespace {

// Assembles the GCN adjacency from per-row neighbor lists: both edge
// directions at weight 1, self loops, then D^{-1/2}(A + I)D^{-1/2}.
SparseMatrix SymmetrizeAndNormalizeKnn(
    size_t n, const std::vector<std::vector<Neighbor>>& neighbors) {
  std::vector<Edge> edges;
  size_t total = n;
  for (const auto& nbrs : neighbors) total += 2 * nbrs.size();
  edges.reserve(total);
  for (size_t i = 0; i < n; ++i) {
    for (const Neighbor& nb : neighbors[i]) {
      // Symmetrize: both directions, weight 1.
      edges.push_back({i, nb.row, 1.0});
      edges.push_back({nb.row, i, 1.0});
    }
  }
  // Self loops.
  for (size_t i = 0; i < n; ++i) edges.push_back({i, i, 1.0});

  // Degrees for symmetric normalization (duplicate edges coalesce to one
  // logical edge; weight may be 2 for mutual neighbours, which is fine —
  // it just emphasizes mutual similarity).
  SparseMatrix raw(n, n, std::move(edges));
  std::vector<double> deg(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = raw.row_ptr()[i]; p < raw.row_ptr()[i + 1]; ++p) {
      deg[i] += raw.values()[p];
    }
  }
  std::vector<Edge> normalized;
  normalized.reserve(raw.nnz());
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = raw.row_ptr()[i]; p < raw.row_ptr()[i + 1]; ++p) {
      const size_t j = raw.col_idx()[p];
      normalized.push_back(
          {i, j, raw.values()[p] / std::sqrt(deg[i] * deg[j])});
    }
  }
  return SparseMatrix(n, n, std::move(normalized));
}

}  // namespace

SparseMatrix BuildKnnGraph(const Matrix& x, const Matrix& mask, size_t k) {
  SCIS_CHECK(x.SameShape(mask));
  const size_t n = x.rows();
  SCIS_CHECK_GT(n, 0u);
  SearchOptions sopts;
  sopts.k = std::min(k, n - 1);
  return SymmetrizeAndNormalizeKnn(
      n, BuildKnnIndex(x, mask).SelfNeighbors(sopts));
}

}  // namespace scis::index
