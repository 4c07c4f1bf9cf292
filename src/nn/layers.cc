#include "nn/layers.h"

namespace scis {

Matrix InferForward(const std::vector<LayerView>& layers, const Matrix& x) {
  SCIS_CHECK(!layers.empty());
  const Matrix* in = &x;
  Matrix h;
  for (const LayerView& l : layers) {
    SCIS_CHECK_EQ(in->cols(), l.in);
    Matrix y(in->rows(), l.out);
    FusedLinearForward(*in, l.w, l.b, l.act, &y);
    h = std::move(y);
    in = &h;
  }
  return h;
}

Linear::Linear(ParamStore* store, const std::string& name, size_t in,
               size_t out, Activation act, Rng& rng, InitKind init)
    : store_(store), in_(in), out_(out), act_(act) {
  w_ = store->Add(name + ".W", InitWeight(init, in, out, rng));
  b_ = store->Add(name + ".b", Matrix::Zeros(1, out));
}

Var Linear::Forward(Tape& tape, Var x) const {
  SCIS_CHECK_EQ(x.cols(), in_);
  Var w = store_->Bind(tape, w_);
  Var b = store_->Bind(tape, b_);
  return FusedLinear(x, w, b, act_);
}

LayerView Linear::View() const {
  return {store_->value(w_).data(), store_->value(b_).data(), in_, out_, act_};
}

Matrix DropoutMask(size_t rows, size_t cols, double rate, Rng& rng) {
  SCIS_CHECK_LT(rate, 1.0);
  const double keep = 1.0 - rate;
  Matrix mask = rng.BernoulliMatrix(rows, cols, keep);
  MulScalarInPlace(mask, 1.0 / keep);
  return mask;
}

Var Dropout(Var x, double rate, Rng& rng) {
  if (rate <= 0.0) return x;
  return Mul(x, x.tape()->Constant(DropoutMask(x.rows(), x.cols(), rate, rng)));
}

Mlp::Mlp(ParamStore* store, const std::string& name,
         const std::vector<size_t>& dims, Activation hidden_act,
         Activation out_act, Rng& rng) {
  SCIS_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    const Activation act = last ? out_act : hidden_act;
    const InitKind init = (hidden_act == Activation::kRelu && !last)
                              ? InitKind::kHeNormal
                              : InitKind::kXavierUniform;
    layers_.emplace_back(store, name + ".l" + std::to_string(i), dims[i],
                         dims[i + 1], act, rng, init);
  }
}

Var Mlp::Forward(Tape& tape, Var x) const {
  Var h = x;
  for (const Linear& l : layers_) h = l.Forward(tape, h);
  return h;
}

Matrix Mlp::Infer(const Matrix& x) const {
  std::vector<LayerView> views;
  views.reserve(layers_.size());
  for (const Linear& l : layers_) views.push_back(l.View());
  return InferForward(views, x);
}

Var Mlp::ForwardDropout(Tape& tape, Var x, double rate, Rng& rng) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(tape, h);
    if (i + 1 < layers_.size()) h = Dropout(h, rate, rng);
  }
  return h;
}

Matrix Mlp::InferDropout(const Matrix& x, double rate, Rng& rng) const {
  auto drop = [&](Matrix& h) {
    if (rate > 0.0) MulInPlace(h, DropoutMask(h.rows(), h.cols(), rate, rng));
  };
  Matrix h = x;
  drop(h);
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = InferForward({layers_[i].View()}, h);
    if (i + 1 < layers_.size()) drop(h);
  }
  return h;
}

}  // namespace scis
