#include "models/ginn_imputer.h"

#include "data/sampler.h"
#include "index/knn_graph.h"

namespace scis {

GinnImputer::GinnImputer(GinnImputerOptions opts)
    : opts_(opts),
      rng_(opts.deep.seed),
      gen_adam_(opts.deep.learning_rate),
      critic_adam_(opts.deep.learning_rate) {}

void GinnImputer::EnsureBuilt(size_t d) {
  if (built_) {
    SCIS_CHECK_EQ(gcn1_->in_dim(), 2 * d);
    return;
  }
  gcn1_ = std::make_unique<Linear>(&gen_store_, "ginn.gcn1", 2 * d,
                                   opts_.hidden, Activation::kNone, rng_,
                                   InitKind::kHeNormal);
  gcn2_ = std::make_unique<Linear>(&gen_store_, "ginn.gcn2", opts_.hidden, d,
                                   Activation::kNone, rng_);
  critic_ = std::make_unique<Mlp>(
      &critic_store_, "ginn.critic",
      std::vector<size_t>{d, opts_.critic_hidden, opts_.critic_hidden, d},
      Activation::kRelu, Activation::kSigmoid, rng_);
  built_ = true;
}

Var GinnImputer::GcnForward(Tape& tape, const Matrix& x, const Matrix& m,
                            std::shared_ptr<const SparseMatrix> graph) const {
  Var xin = tape.Constant(ConcatCols(x, m));
  // Layer 1: relu(Â X W1 + b1); Linear applies W then we propagate with Â.
  Var h = Relu(SparseMatMul(graph, gcn1_->Forward(tape, xin)));
  return Sigmoid(SparseMatMul(std::move(graph), gcn2_->Forward(tape, h)));
}

Var GinnImputer::ReconstructOnTape(Tape& tape, const Matrix& x,
                                   const Matrix& m, bool /*train*/) {
  EnsureBuilt(x.cols());
  auto graph = std::make_shared<const SparseMatrix>(  // batch-local graph
      index::BuildKnnGraph(x, m, opts_.graph_k));
  return GcnForward(tape, x, m, std::move(graph));
}

Status GinnImputer::Fit(const Dataset& data) {
  if (data.num_rows() == 0) return Status::InvalidArgument("empty dataset");
  EnsureBuilt(data.num_cols());
  const size_t n = data.num_rows();
  // Full similarity graph — index-backed, so this step no longer
  // dominates at scale.
  const auto graph = std::make_shared<const SparseMatrix>(
      index::BuildKnnGraph(data.values(), data.mask(), opts_.graph_k));
  const Matrix& x = data.values();
  const Matrix& m = data.mask();
  const Matrix ones = Matrix::Ones(n, data.num_cols());
  const Matrix inv_m = Map(m, [](double v) { return 1 - v; });

  for (int epoch = 0; epoch < opts_.deep.epochs; ++epoch) {
    // Critic steps: distinguish observed from imputed cells on x̂.
    for (int cstep = 0; cstep < opts_.critic_steps; ++cstep) {
      Tape& tape = critic_tape_;
      Var xbar = GcnForward(tape, x, m, graph);
      Var mC = tape.ConstantRef(&m);
      Var xhat = Add(Mul(mC, tape.ConstantRef(&x)),
                     Mul(tape.ConstantRef(&inv_m), xbar));
      Var prob = critic_->Forward(tape, xhat);
      Var closs = WeightedBceLoss(prob, mC, tape.ConstantRef(&ones));
      tape.Backward(closs);
      critic_store_.CollectGradsInto(&grad_views_);
      critic_adam_.Step(critic_store_, grad_views_);
      gen_store_.DropBindings();
      tape.Clear();
    }
    // Generator step.
    {
      Tape& tape = gen_tape_;
      Var xbar = GcnForward(tape, x, m, graph);
      Var mC = tape.ConstantRef(&m);
      Var xC = tape.ConstantRef(&x);
      Var invC = tape.ConstantRef(&inv_m);
      Var xhat = Add(Mul(mC, xC), Mul(invC, xbar));
      Var prob = critic_->Forward(tape, xhat);
      Var adv = WeightedBceLoss(prob, tape.ConstantRef(&ones), invC);
      Var rec = WeightedMseLoss(xbar, xC, mC);
      Var gloss = Add(adv, MulScalar(rec, opts_.alpha));
      tape.Backward(gloss);
      gen_store_.CollectGradsInto(&grad_views_);
      gen_adam_.Step(gen_store_, grad_views_);
      critic_store_.DropBindings();
      tape.Clear();
    }
  }
  return Status::OK();
}

Matrix GinnImputer::Reconstruct(const Dataset& data) const {
  SCIS_CHECK_MSG(built_, "Reconstruct before Fit");
  // GcnForward without a tape: the same fused-linear forward, sparse
  // propagation and activations, so the result equals it bit for bit.
  const Matrix& x = data.values();
  const Matrix& m = data.mask();
  const SparseMatrix graph = index::BuildKnnGraph(x, m, opts_.graph_k);
  const Matrix h =
      Relu(graph.MatMulDense(InferForward({gcn1_->View()}, ConcatCols(x, m))));
  return Sigmoid(graph.MatMulDense(InferForward({gcn2_->View()}, h)));
}

}  // namespace scis
