#include "models/rrsi_imputer.h"

#include <cmath>

#include "models/column_stats.h"
#include "ot/divergence.h"
#include "tensor/matrix_ops.h"

namespace scis {

Status RrsiImputer::Fit(const Dataset& data) {
  const size_t n = data.num_rows(), d = data.num_cols();
  if (n < 2) return Status::InvalidArgument("RRSI needs at least two rows");
  Rng rng(opts_.seed);
  means_ = ObservedColumnMeans(data);
  train_mask_ = data.mask();
  completed_ = MeanFill(data);
  // Noisy start so identical missing patterns do not collapse together.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (!data.IsObserved(i, j)) {
        completed_(i, j) += rng.Normal(0.0, opts_.init_noise);
      }
    }
  }

  // Adam state for every cell (only missing cells ever receive gradients).
  Matrix adam_m(n, d), adam_v(n, d);
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  SinkhornOptions sopts;
  sopts.lambda = opts_.lambda;
  sopts.max_iters = 100;
  sopts.tol = 1e-6;

  const size_t batch = std::min(opts_.batch_size, n / 2);
  if (batch == 0) return Status::InvalidArgument("batch too small");

  for (int it = 1; it <= opts_.iterations; ++it) {
    std::vector<size_t> idx =
        rng.SampleWithoutReplacement(n, 2 * batch);
    std::vector<size_t> ia(idx.begin(), idx.begin() + batch);
    std::vector<size_t> ib(idx.begin() + batch, idx.end());
    Matrix a = completed_.GatherRows(ia);
    Matrix b = completed_.GatherRows(ib);
    // One call, three solves: the gradients in both batches.
    const DivergenceResult div =
        SinkhornDivergence(a, b, sopts, /*with_grad=*/true);

    const double bc1 = 1.0 - std::pow(b1, it);
    const double bc2 = 1.0 - std::pow(b2, it);
    auto apply = [&](const std::vector<size_t>& rows, const Matrix& grad) {
      for (size_t r = 0; r < rows.size(); ++r) {
        const size_t i = rows[r];
        for (size_t j = 0; j < d; ++j) {
          if (train_mask_(i, j) == 1.0) continue;  // only missing cells move
          const double g = grad(r, j);
          double& mm = adam_m(i, j);
          double& vv = adam_v(i, j);
          mm = b1 * mm + (1 - b1) * g;
          vv = b2 * vv + (1 - b2) * g * g;
          completed_(i, j) -=
              opts_.learning_rate * (mm / bc1) / (std::sqrt(vv / bc2) + eps);
        }
      }
    };
    apply(ia, div.grad_xbar);
    apply(ib, div.grad_b);
  }
  return Status::OK();
}

Matrix RrsiImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(!completed_.empty(), "Reconstruct before Fit");
  if (data.mask().SameShape(train_mask_) && data.mask() == train_mask_) {
    return completed_;
  }
  return FillMissing(data, means_);
}

}  // namespace scis
