// k-nearest-neighbour imputation (the "most similar among the training
// data" family of §II-A, after Twala et al. / Altman). Distance between two
// incomplete rows is the squared Euclidean distance over their co-observed
// coordinates, rescaled by the co-observed count; a missing cell is filled
// by the observed-value average of its k nearest neighbours.
//
// The whole training set is the reference: Fit indexes it with
// index::BuildKnnIndex (an exact scan up to index::kExactKnnMaxRows rows,
// the ANN tree above) and Reconstruct searches that index. Rows with no
// finite-distance neighbour (no co-observed coordinate with any reference
// row) fall back to the observed column means instead of averaging
// arbitrary rows.
#ifndef SCIS_MODELS_KNN_IMPUTER_H_
#define SCIS_MODELS_KNN_IMPUTER_H_

#include "index/ann_index.h"
#include "models/imputer.h"

namespace scis {

struct KnnImputerOptions {
  size_t k = 10;
};

class KnnImputer final : public Imputer {
 public:
  explicit KnnImputer(KnnImputerOptions opts = {}) : opts_(opts) {}

  std::string name() const override { return "KNN"; }
  Status Fit(const Dataset& data) override;
  Matrix Reconstruct(const Dataset& data) const override;

 private:
  KnnImputerOptions opts_;
  std::vector<double> fallback_means_;
  index::AnnIndex index_;  // over the training rows
};

}  // namespace scis

#endif  // SCIS_MODELS_KNN_IMPUTER_H_
