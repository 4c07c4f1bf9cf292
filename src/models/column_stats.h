// Column statistics over observed entries, shared by the statistical
// imputers and by the mean-fill initialization most deep imputers use.
#ifndef SCIS_MODELS_COLUMN_STATS_H_
#define SCIS_MODELS_COLUMN_STATS_H_

#include <vector>

#include "data/dataset.h"

namespace scis {

// Mean of observed entries per column (0 for fully-missing columns).
std::vector<double> ObservedColumnMeans(const Dataset& data);

// Replaces missing cells (mask != 1) with the given per-column fill values.
Matrix FillMissing(const Matrix& values, const Matrix& mask,
                   const std::vector<double>& fill);
Matrix FillMissing(const Dataset& data, const std::vector<double>& fill);

// Mean-fills missing cells: the canonical initialization.
Matrix MeanFill(const Dataset& data);

}  // namespace scis

#endif  // SCIS_MODELS_COLUMN_STATS_H_
