#include "ot/divergence.h"

#include "common/check.h"
#include "obs/trace.h"
#include "ot/masked_cost.h"
#include "tensor/matrix_ops.h"

namespace scis {

namespace {

// OT_λ^m solves over pre-projected rows (am = a⊙ma), so each projection is
// formed once per call. Every cost is PairwiseSquaredDistances of the
// projected rows (one coordinate-major kernel); a self term goes through
// SolveSinkhornSelf, whose cost is symmetric by construction, so its
// first Gibbs kernel is built from one triangle. Both are bit-identical to
// solving MaskedCostMatrix(a, ma, b, mb). Each cost build is one
// `ot.masked_cost` span.
SinkhornSolution SolveCross(const Matrix& am, const Matrix& bm,
                            const SinkhornOptions& opts) {
  const Matrix cost = [&] {
    SCIS_TRACE_SPAN("ot.masked_cost");
    return PairwiseSquaredDistances(am, bm);
  }();
  return SolveSinkhorn(cost, opts);
}

// Envelope gradient of a self term OT_λ^m(A, A) in A, which is both the
// source and the target measure.
Matrix SelfGrad(const SinkhornSolution& aa, const Matrix& a,
                const Matrix& ma) {
  Matrix g = MaskedOtGradWrtA(aa.plan, a, ma, a, ma);
  AddInPlace(g, MaskedOtGradWrtB(aa.plan, a, ma, a, ma));
  return g;
}

// The X̄-dependent part of the MS divergence, 2·OT_λ^m(A, B) − OT_λ^m(A, A),
// from the cross solve `ab` and the A self solve `aa`, with its Prop.-1
// gradient in A when requested. The B self term is constant in A, so
// callers subtract only its value.
DivergenceResult CrossMinusSelf(const SinkhornSolution& ab,
                                const SinkhornSolution& aa, const Matrix& a,
                                const Matrix& ma, const Matrix& b,
                                const Matrix& mb, bool with_grad) {
  DivergenceResult out;
  out.value = 2.0 * ab.reg_value - aa.reg_value;
  if (with_grad) {
    SCIS_TRACE_SPAN("ot.envelope_grad");
    // Cross term: X̄ appears only as the source measure.
    Matrix g = MaskedOtGradWrtA(ab.plan, a, ma, b, mb);
    MulScalarInPlace(g, 2.0);
    SubInPlace(g, SelfGrad(aa, a, ma));
    out.grad_xbar = std::move(g);
  }
  return out;
}

// The full divergence from its three solves, with the gradient in A and,
// when `grad_b` is set, the gradient in B from the same plans: the cross
// plan's B side and the B self plan.
DivergenceResult FullDivergence(const Matrix& a, const Matrix& ma,
                                const Matrix& b, const Matrix& mb,
                                const SinkhornOptions& opts, bool grad_a,
                                bool grad_b) {
  SCIS_CHECK(a.SameShape(ma));
  SCIS_CHECK(b.SameShape(mb));
  SCIS_CHECK_EQ(a.cols(), b.cols());
  const Matrix am = Mul(a, ma);
  const Matrix bm = Mul(b, mb);
  const SinkhornSolution ab = SolveCross(am, bm, opts);
  const SinkhornSolution aa = SolveSinkhornSelf(am, opts);
  const SinkhornSolution bb = SolveSinkhornSelf(bm, opts);
  DivergenceResult out = CrossMinusSelf(ab, aa, a, ma, b, mb, grad_a);
  out.value -= bb.reg_value;
  if (grad_b) {
    SCIS_TRACE_SPAN("ot.envelope_grad");
    Matrix g = MaskedOtGradWrtB(ab.plan, a, ma, b, mb);
    MulScalarInPlace(g, 2.0);
    SubInPlace(g, SelfGrad(bb, b, mb));
    out.grad_b = std::move(g);
  }
  return out;
}

}  // namespace

DivergenceResult MsDivergenceMasked(const Matrix& a, const Matrix& ma,
                                    const Matrix& b, const Matrix& mb,
                                    const SinkhornOptions& opts,
                                    bool with_grad) {
  return FullDivergence(a, ma, b, mb, opts, with_grad, /*grad_b=*/false);
}

DivergenceResult MsDivergence(const Matrix& xbar, const Matrix& x,
                              const Matrix& m, const SinkhornOptions& opts,
                              bool with_grad) {
  return MsDivergenceMasked(xbar, m, x, m, opts, with_grad);
}

DivergenceResult MsDivergenceForTraining(const Matrix& xbar, const Matrix& x,
                                         const Matrix& m,
                                         const SinkhornOptions& opts) {
  SCIS_CHECK(xbar.SameShape(x));
  SCIS_CHECK(xbar.SameShape(m));
  const Matrix xbar_m = Mul(xbar, m);
  const SinkhornSolution ab = SolveCross(xbar_m, Mul(x, m), opts);
  const SinkhornSolution aa = SolveSinkhornSelf(xbar_m, opts);
  return CrossMinusSelf(ab, aa, xbar, m, x, m, /*with_grad=*/true);
}

DivergenceResult SinkhornDivergence(const Matrix& a, const Matrix& b,
                                    const SinkhornOptions& opts,
                                    bool with_grad) {
  const Matrix ones_a = Matrix::Ones(a.rows(), a.cols());
  const Matrix ones_b = Matrix::Ones(b.rows(), b.cols());
  return FullDivergence(a, ones_a, b, ones_b, opts, with_grad, with_grad);
}

}  // namespace scis
