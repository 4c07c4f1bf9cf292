#include "testkit/models.h"

#include "tensor/matrix_ops.h"

namespace scis::testkit {

TinyMlpModel::TinyMlpModel(const MlpConfig& config, size_t d) : d_(d) {
  SCIS_CHECK_EQ(config.dims.front(), 2 * d);
  SCIS_CHECK_EQ(config.dims.back(), d);
  mlp_ = BuildMlp(&store_, "tiny.G", config);
}

MlpConfig TinyMlpModel::DefaultConfig(size_t d, uint64_t seed) {
  MlpConfig config;
  config.dims = {2 * d, d + 2, d};
  config.hidden_act = Activation::kTanh;
  config.out_act = Activation::kSigmoid;
  config.init_seed = seed;
  return config;
}

Status TinyMlpModel::Fit(const Dataset& data) {
  if (data.num_rows() == 0) return Status::InvalidArgument("empty dataset");
  Adam adam(learning_rate);
  for (int step = 0; step < fit_steps; ++step) {
    Tape tape;
    Var xbar =
        ReconstructOnTape(tape, data.values(), data.mask(), /*train=*/true);
    Var loss = WeightedMseLoss(xbar, tape.Constant(data.values()),
                               tape.Constant(data.mask()));
    tape.Backward(loss);
    adam.Step(store_, store_.CollectGrads());
  }
  return Status::OK();
}

Matrix TinyMlpModel::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_EQ(data.num_cols(), d_);
  return mlp_->Infer(ConcatCols(data.values(), data.mask()));
}

Var TinyMlpModel::ReconstructOnTape(Tape& tape, const Matrix& x,
                                    const Matrix& m, bool /*train*/) {
  SCIS_CHECK_EQ(x.cols(), d_);
  Var in = tape.Constant(ConcatCols(x, m));
  return mlp_->Forward(tape, in);
}

}  // namespace scis::testkit
