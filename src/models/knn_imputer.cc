#include "models/knn_imputer.h"

#include <algorithm>

#include "models/column_stats.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace scis {

Status KnnImputer::Fit(const Dataset& data) {
  fallback_means_ = ObservedColumnMeans(data);
  index_ = index::BuildKnnIndex(data.values(), data.mask());
  return Status::OK();
}

Matrix KnnImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_GT(index_.num_rows(), 0u);
  const size_t n = data.num_rows(), d = data.num_cols();
  const Matrix& ref = index_.values();
  const Matrix& ref_mask = index_.mask();
  Matrix out(n, d);

  index::SearchOptions sopts;
  sopts.k = std::min(opts_.k, index_.num_rows());
  const size_t grain = runtime::GrainForWork(n, 64 * d);
  SCIS_TRACE_SPAN("index.search");
  runtime::ParallelFor(0, n, grain, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const std::vector<index::Neighbor> nbrs = index_.Search(
          data.values().row_data(i), data.mask().row_data(i), sopts);
      double* orow = out.row_data(i);
      for (size_t j = 0; j < d; ++j) {
        double sum = 0.0;
        size_t cnt = 0;
        for (const index::Neighbor& nb : nbrs) {
          if (ref_mask(nb.row, j) == 1.0) {
            sum += ref(nb.row, j);
            ++cnt;
          }
        }
        // Only finite-distance neighbours reach here; a row that shares no
        // observed coordinate with any reference row has none, and falls
        // back to the column mean rather than an average over arbitrary
        // rows. Same per-cell fallback when no neighbour observed column j.
        orow[j] = cnt ? sum / static_cast<double>(cnt) : fallback_means_[j];
      }
    }
  });
  return out;
}

}  // namespace scis
