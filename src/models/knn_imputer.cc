#include "models/knn_imputer.h"

#include <algorithm>

#include "models/column_stats.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace scis {

Status KnnImputer::Fit(const Dataset& data) {
  fallback_means_ = ObservedColumnMeans(data);
  if (opts_.max_reference_rows > 0 &&
      data.num_rows() > opts_.max_reference_rows) {
    Rng rng(opts_.seed);
    reference_ = data.GatherRows(rng.SampleWithoutReplacement(
        data.num_rows(), opts_.max_reference_rows));
  } else {
    reference_ = data;
  }
  if (reference_.num_rows() > opts_.brute_force_threshold) {
    index_ = index::AnnIndex::Build(reference_.values(), reference_.mask(),
                                    opts_.index);
  } else {
    index_ = index::AnnIndex();
  }
  return Status::OK();
}

Matrix KnnImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_GT(reference_.num_rows(), 0u);
  const size_t n = data.num_rows(), d = data.num_cols();
  const size_t k = std::min(opts_.k, reference_.num_rows());
  Matrix out(n, d);

  index::SearchOptions sopts;
  sopts.k = k;
  sopts.max_leaf_visits = opts_.max_leaf_visits;
  const size_t grain = runtime::GrainForWork(n, 64 * d);
  SCIS_TRACE_SPAN("index.search");
  runtime::ParallelFor(0, n, grain, [&](size_t b, size_t e) {
    std::vector<index::Neighbor> nbrs;
    for (size_t i = b; i < e; ++i) {
      const double* xi = data.values().row_data(i);
      const double* mi = data.mask().row_data(i);
      if (!index_.empty()) {
        nbrs = index_.Search(xi, mi, sopts);
      } else {
        nbrs = index::BruteForceSearch(reference_.values(), reference_.mask(),
                                       xi, mi, k);
      }
      double* orow = out.row_data(i);
      for (size_t j = 0; j < d; ++j) {
        double sum = 0.0;
        size_t cnt = 0;
        for (const index::Neighbor& nb : nbrs) {
          if (reference_.IsObserved(nb.row, j)) {
            sum += reference_.values()(nb.row, j);
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
