#include "ot/ms_loss.h"

namespace scis {

Var MsLoss(Var xbar, const Matrix& x, const Matrix& m,
           const SinkhornOptions& opts) {
  const Matrix xbar_val = xbar.value();
  SCIS_CHECK(xbar_val.SameShape(x));
  const double inv_2n = 1.0 / (2.0 * static_cast<double>(x.rows()));
  DivergenceResult res = MsDivergenceForTraining(xbar_val, x, m, opts);
  Matrix grad = std::move(res.grad_xbar);
  MulScalarInPlace(grad, inv_2n);
  return CustomScalarOp(xbar, res.value * inv_2n,
                        [grad]() { return grad; });
}

Var SinkhornLossBoth(Var a, Var b, const SinkhornOptions& opts) {
  const Matrix a_val = a.value();
  const Matrix b_val = b.value();
  SCIS_CHECK_EQ(a_val.cols(), b_val.cols());
  const double inv_2n = 1.0 / (2.0 * static_cast<double>(a_val.rows()));
  DivergenceResult r =
      SinkhornDivergence(a_val, b_val, opts, /*with_grad=*/true);
  Matrix ga = std::move(r.grad_xbar);
  Matrix gb = std::move(r.grad_b);
  MulScalarInPlace(ga, inv_2n);
  MulScalarInPlace(gb, inv_2n);
  Tape* t = a.tape();
  Matrix out(1, 1);
  out(0, 0) = r.value * inv_2n;
  return t->Node(std::move(out), {a, b},
                 [a, b, ga, gb](Tape& tape, Var, const Matrix& g) {
                   if (tape.requires_grad(a))
                     tape.AccumulateGrad(a, MulScalar(ga, g(0, 0)));
                   if (tape.requires_grad(b))
                     tape.AccumulateGrad(b, MulScalar(gb, g(0, 0)));
                 });
}

}  // namespace scis
