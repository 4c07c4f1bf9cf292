#include "models/mlp_imputer.h"

#include "models/column_stats.h"

namespace scis {

void MlpImputer::BuildModel(size_t d) {
  std::vector<size_t> dims{2 * d};
  for (int i = 0; i < mopts_.hidden_layers; ++i) dims.push_back(mopts_.hidden);
  dims.push_back(d);
  net_ = std::make_unique<Mlp>(&store_, "datawig", dims, Activation::kRelu,
                               Activation::kSigmoid, rng_);
}

Var MlpImputer::BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) {
  Var xin = tape.Constant(ConcatCols(x, m));
  Var pred = net_->ForwardDropout(tape, xin, opts_.dropout, rng_);
  Var target = tape.Constant(x);
  Var weight = tape.Constant(m);
  return WeightedMseLoss(pred, target, weight);
}

Matrix MlpImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  // Forward with dropout off, without the tape.
  return net_->Infer(ConcatCols(data.values(), data.mask()));
}

}  // namespace scis
