// Evaluation metrics (§VI): RMSE over held-out cells, vector MAE, and AUC.
#ifndef SCIS_EVAL_METRICS_H_
#define SCIS_EVAL_METRICS_H_

#include <vector>

#include "tensor/matrix.h"

namespace scis {

// RMSE between `imputed` and `truth` restricted to cells where
// eval_mask == 1 (the 20%-of-observed hold-out protocol).
double MaskedRmse(const Matrix& imputed, const Matrix& truth,
                  const Matrix& eval_mask);

// Mean absolute error between prediction and target vectors.
double Mae(const std::vector<double>& pred, const std::vector<double>& truth);

// Area under the ROC curve; labels in {0,1}, scores arbitrary. Ties are
// handled by the rank-sum (Mann–Whitney) formulation.
double Auc(const std::vector<double>& scores,
           const std::vector<double>& labels);

// Mean ± sample standard deviation over repeated runs, formatted like the
// paper's "0.398 (± 0.024)" cells.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd Summarize(const std::vector<double>& values);

}  // namespace scis

#endif  // SCIS_EVAL_METRICS_H_
