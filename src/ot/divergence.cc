#include "ot/divergence.h"

#include "common/check.h"
#include "obs/trace.h"
#include "ot/masked_cost.h"
#include "tensor/matrix_ops.h"

namespace scis {

namespace {

// The X̄-dependent part of the MS divergence, 2·OT_λ^m(A, B) − OT_λ^m(A, A),
// from the cross solve `ab` and the A self solve `aa`, with its Prop.-1
// gradient in A when requested. The B self term is constant in A, so
// MsDivergenceMasked subtracts only its value.
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
    // Self term: X̄ is both source and target; subtract both envelope parts.
    Matrix gs = MaskedOtGradWrtA(aa.plan, a, ma, a, ma);
    AddInPlace(gs, MaskedOtGradWrtB(aa.plan, a, ma, a, ma));
    SubInPlace(g, gs);
    out.grad_xbar = std::move(g);
  }
  return out;
}

}  // namespace

DivergenceResult MsDivergenceMasked(const Matrix& a, const Matrix& ma,
                                    const Matrix& b, const Matrix& mb,
                                    const SinkhornOptions& opts,
                                    bool with_grad) {
  SCIS_CHECK(a.SameShape(ma));
  SCIS_CHECK(b.SameShape(mb));
  SCIS_CHECK_EQ(a.cols(), b.cols());

  const SinkhornSolution ab = SolveSinkhornMasked(a, ma, b, mb, opts);
  const SinkhornSolution aa = SolveSinkhornMasked(a, ma, a, ma, opts);
  const SinkhornSolution bb = SolveSinkhornMasked(b, mb, b, mb, opts);
  DivergenceResult out = CrossMinusSelf(ab, aa, a, ma, b, mb, with_grad);
  out.value -= bb.reg_value;
  return out;
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
  const SinkhornSolution ab = SolveSinkhornMasked(xbar, m, x, m, opts);
  const SinkhornSolution aa = SolveSinkhornMasked(xbar, m, xbar, m, opts);
  return CrossMinusSelf(ab, aa, xbar, m, x, m, /*with_grad=*/true);
}

DivergenceResult SinkhornDivergence(const Matrix& a, const Matrix& b,
                                    const SinkhornOptions& opts,
                                    bool with_grad) {
  const Matrix ones_a = Matrix::Ones(a.rows(), a.cols());
  const Matrix ones_b = Matrix::Ones(b.rows(), b.cols());
  return MsDivergenceMasked(a, ones_a, b, ones_b, opts, with_grad);
}

}  // namespace scis
