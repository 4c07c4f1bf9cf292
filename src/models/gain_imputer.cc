#include "models/gain_imputer.h"

#include "data/sampler.h"

namespace scis {

GainImputer::GainImputer(GainImputerOptions opts)
    : opts_(opts),
      rng_(opts.deep.seed),
      gen_adam_(opts.deep.learning_rate),
      disc_adam_(opts.deep.learning_rate) {}

void GainImputer::EnsureBuilt(size_t d) {
  if (built_) {
    SCIS_CHECK_EQ(generator_->in_dim(), 2 * d);
    return;
  }
  // §VI: both nets are 2-layer fully connected with width d.
  generator_ = std::make_unique<Mlp>(
      &gen_store_, "gain.G", std::vector<size_t>{2 * d, d, d},
      Activation::kRelu, Activation::kSigmoid, rng_);
  discriminator_ = std::make_unique<Mlp>(
      &disc_store_, "gain.D", std::vector<size_t>{2 * d, d, d},
      Activation::kRelu, Activation::kSigmoid, rng_);
  built_ = true;
}

Var GainImputer::ReconstructOnTape(Tape& tape, const Matrix& x,
                                   const Matrix& m, bool train) {
  EnsureBuilt(x.cols());
  // x̃ = x ⊙ m + z ⊙ (1 − m); x already stores 0 at missing cells.
  Matrix xt = x;
  if (train) {
    for (size_t i = 0; i < xt.rows(); ++i)
      for (size_t j = 0; j < xt.cols(); ++j)
        if (m(i, j) != 1.0) xt(i, j) = rng_.Uniform(0.0, opts_.noise_high);
  }
  Var xin = tape.Constant(ConcatCols(xt, m));
  return generator_->Forward(tape, xin);
}

Status GainImputer::Fit(const Dataset& data) {
  if (data.num_rows() == 0) return Status::InvalidArgument("empty dataset");
  EnsureBuilt(data.num_cols());
  MiniBatcher batcher(data.num_rows(), opts_.deep.batch_size, rng_);
  std::vector<size_t> batch;
  for (int epoch = 0; epoch < opts_.deep.epochs; ++epoch) {
    batcher.Reset(rng_);
    while (batcher.Next(&batch)) {
      Matrix x = data.values().GatherRows(batch);
      Matrix m = data.mask().GatherRows(batch);
      const size_t n = x.rows(), d = x.cols();

      // Hint matrix: reveal hint_rate of the mask, 0.5 elsewhere.
      Matrix b = rng_.BernoulliMatrix(n, d, opts_.hint_rate);
      Matrix h(n, d);
      for (size_t k = 0; k < h.size(); ++k) {
        h.data()[k] = b.data()[k] == 1.0 ? m.data()[k] : 0.5;
      }
      Matrix ones = Matrix::Ones(n, d);

      // --- discriminator step (skipped while D dominates) ---
      if (opts_.d_loss_floor <= 0.0 || last_d_loss_ == 0.0 ||
          last_d_loss_ >= opts_.d_loss_floor) {
        Tape& tape = disc_tape_;
        Var xbar = ReconstructOnTape(tape, x, m, /*train=*/true);
        // x̂ = m ⊙ x + (1−m) ⊙ x̄, built on-tape so G could get gradients,
        // but here only D's parameters are stepped.
        Var mC = tape.Constant(m);
        Var xC = tape.Constant(x);
        Var one_minus_m = tape.Constant(Map(m, [](double v) { return 1 - v; }));
        Var xhat = Add(Mul(mC, xC), Mul(one_minus_m, xbar));
        Var din = ConcatCols(xhat, tape.Constant(h));
        Var dprob = discriminator_->Forward(tape, din);
        Var dloss = WeightedBceLoss(dprob, mC, tape.Constant(ones));
        tape.Backward(dloss);
        disc_store_.CollectGradsInto(&grad_views_);
        disc_adam_.Step(disc_store_, grad_views_);
        gen_store_.DropBindings();  // discard generator grads this step
        last_d_loss_ = dloss.value()(0, 0);
        tape.Clear();
      }

      // --- generator step ---
      {
        Tape& tape = gen_tape_;
        Var xbar = ReconstructOnTape(tape, x, m, /*train=*/true);
        Var mC = tape.Constant(m);
        Var xC = tape.Constant(x);
        Matrix inv_m = Map(m, [](double v) { return 1 - v; });
        Var one_minus_m = tape.Constant(inv_m);
        Var xhat = Add(Mul(mC, xC), Mul(one_minus_m, xbar));
        Var din = ConcatCols(xhat, tape.Constant(h));
        Var dprob = discriminator_->Forward(tape, din);
        // Adversarial term: G wants D to call missing cells observed,
        // i.e. labels = 1 on the missing cells.
        Var adv = WeightedBceLoss(dprob, tape.Constant(ones), one_minus_m);
        Var rec = WeightedMseLoss(xbar, xC, mC);
        Var gloss = Add(adv, MulScalar(rec, opts_.alpha));
        tape.Backward(gloss);
        gen_store_.CollectGradsInto(&grad_views_);
        gen_adam_.Step(gen_store_, grad_views_);
        disc_store_.DropBindings();  // discard discriminator grads
        last_g_loss_ = gloss.value()(0, 0);
        tape.Clear();
      }
    }
  }
  return Status::OK();
}

Matrix GainImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  // ReconstructOnTape at train=false, without the tape: x̃ = x (no noise).
  return generator_->Infer(ConcatCols(data.values(), data.mask()));
}

}  // namespace scis
