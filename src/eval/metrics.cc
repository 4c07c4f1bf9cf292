#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace scis {

double MaskedRmse(const Matrix& imputed, const Matrix& truth,
                  const Matrix& eval_mask) {
  SCIS_CHECK(imputed.SameShape(truth));
  SCIS_CHECK(imputed.SameShape(eval_mask));
  double acc = 0.0;
  size_t cnt = 0;
  for (size_t k = 0; k < imputed.size(); ++k) {
    if (eval_mask.data()[k] == 1.0) {
      const double e = imputed.data()[k] - truth.data()[k];
      acc += e * e;
      ++cnt;
    }
  }
  if (cnt == 0) return 0.0;
  return std::sqrt(acc / static_cast<double>(cnt));
}

double Mae(const std::vector<double>& pred,
           const std::vector<double>& truth) {
  SCIS_CHECK_EQ(pred.size(), truth.size());
  SCIS_CHECK(!pred.empty());
  double acc = 0.0;
  for (size_t i = 0; i < pred.size(); ++i) acc += std::abs(pred[i] - truth[i]);
  return acc / static_cast<double>(pred.size());
}

double Auc(const std::vector<double>& scores,
           const std::vector<double>& labels) {
  SCIS_CHECK_EQ(scores.size(), labels.size());
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  // Average ranks over tied scores.
  std::vector<double> rank(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg = 0.5 * (static_cast<double>(i) + static_cast<double>(j)) + 1.0;
    for (size_t t = i; t <= j; ++t) rank[order[t]] = avg;
    i = j + 1;
  }
  double pos_rank_sum = 0.0;
  size_t npos = 0;
  for (size_t t = 0; t < n; ++t) {
    if (labels[t] == 1.0) {
      pos_rank_sum += rank[t];
      ++npos;
    }
  }
  const size_t nneg = n - npos;
  if (npos == 0 || nneg == 0) return 0.5;
  const double u = pos_rank_sum - static_cast<double>(npos) *
                                      (static_cast<double>(npos) + 1.0) / 2.0;
  return u / (static_cast<double>(npos) * static_cast<double>(nneg));
}

MeanStd Summarize(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  out.mean = std::accumulate(values.begin(), values.end(), 0.0) /
             static_cast<double>(values.size());
  if (values.size() > 1) {
    double acc = 0.0;
    for (double v : values) acc += (v - out.mean) * (v - out.mean);
    out.stddev = std::sqrt(acc / static_cast<double>(values.size() - 1));
  }
  return out;
}

}  // namespace scis
