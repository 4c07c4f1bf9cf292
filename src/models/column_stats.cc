#include "models/column_stats.h"

namespace scis {

std::vector<double> ObservedColumnMeans(const Dataset& data) {
  const size_t d = data.num_cols();
  std::vector<double> sum(d, 0.0);
  std::vector<size_t> cnt(d, 0);
  for (size_t i = 0; i < data.num_rows(); ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (data.IsObserved(i, j)) {
        sum[j] += data.values()(i, j);
        ++cnt[j];
      }
    }
  }
  for (size_t j = 0; j < d; ++j) {
    sum[j] = cnt[j] ? sum[j] / static_cast<double>(cnt[j]) : 0.0;
  }
  return sum;
}

Matrix FillMissing(const Matrix& values, const Matrix& mask,
                   const std::vector<double>& fill) {
  SCIS_CHECK_EQ(fill.size(), values.cols());
  Matrix out = values;
  for (size_t i = 0; i < out.rows(); ++i) {
    for (size_t j = 0; j < out.cols(); ++j) {
      if (mask(i, j) != 1.0) out(i, j) = fill[j];
    }
  }
  return out;
}

Matrix FillMissing(const Dataset& data, const std::vector<double>& fill) {
  return FillMissing(data.values(), data.mask(), fill);
}

Matrix MeanFill(const Dataset& data) {
  return FillMissing(data, ObservedColumnMeans(data));
}

}  // namespace scis
