#include "models/midae_imputer.h"

#include "models/column_stats.h"

namespace scis {

void MidaeImputer::BuildModel(size_t d) {
  net_ = std::make_unique<Mlp>(
      &store_, "midae",
      std::vector<size_t>{d, mopts_.hidden, mopts_.hidden, d},
      Activation::kRelu, Activation::kSigmoid, rng_);
}

Var MidaeImputer::BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) {
  // Mean-fill the batch with the training means; the input-layer dropout
  // is the denoising corruption.
  Var xin = tape.Constant(FillMissing(x, m, train_means_));
  Var corrupted = Dropout(xin, opts_.dropout, rng_);
  Var pred = net_->ForwardDropout(tape, corrupted, opts_.dropout, rng_);
  return WeightedMseLoss(pred, tape.Constant(x), tape.Constant(m));
}

Matrix MidaeImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  Matrix filled = FillMissing(data, train_means_);
  Matrix acc(data.num_rows(), data.num_cols());
  // Multiple imputation: average dropout-on stochastic reconstructions,
  // drawn from a copy of the model's stream so every call agrees.
  Rng rng = rng_;
  for (int s = 0; s < mopts_.num_imputations; ++s) {
    AddInPlace(acc, net_->InferDropout(filled, opts_.dropout, rng));
  }
  MulScalarInPlace(acc, 1.0 / static_cast<double>(mopts_.num_imputations));
  return acc;
}

}  // namespace scis
