// Masking Sinkhorn divergence (Def. 4) and its gradient (Prop. 1), plus the
// plain Sinkhorn divergence used by the RRSI baseline.
//
//   S_m(ν̄ || µ) = 2·OT_λ^m(X̄, X) − OT_λ^m(X̄, X̄) − OT_λ^m(X, X)
//
// where every OT term measures mask-projected rows. The divergence is
// differentiable everywhere in X̄; the gradient combines the envelope
// gradients of the cross term and the X̄ self term (the X–X term is a
// constant). The paper's imputation loss is L_s = S_m / (2n).
//
// MsDivergence / MsDivergenceMasked return the exact value (tests, oracles,
// benches); MsDivergenceForTraining skips the constant term and backs the
// autodiff loss MsLoss (ot/ms_loss.h).
#ifndef SCIS_OT_DIVERGENCE_H_
#define SCIS_OT_DIVERGENCE_H_

#include "ot/sinkhorn.h"
#include "tensor/matrix.h"

namespace scis {

struct DivergenceResult {
  double value = 0.0;   // the divergence S (or plain Sinkhorn divergence)
  Matrix grad_xbar;     // dS/dX̄, same shape as X̄ (empty if not requested)
  Matrix grad_b;        // dS/dB: SinkhornDivergence only, else empty
};

// MS divergence between the reconstruction X̄ (generated) and data X, both
// masked by M. mask_xbar defaults to M (Def. 2 pairs each row with the mask
// of the *dataset* row: observed coordinates drive the distance).
DivergenceResult MsDivergence(const Matrix& xbar, const Matrix& x,
                              const Matrix& m, const SinkhornOptions& opts,
                              bool with_grad);

// Generalized form with separate masks and row counts for the two sides;
// MsDivergence is this with both masks M. No production path calls it
// directly (the DIM critic transports unmasked embeddings through
// SinkhornLossBoth → SinkhornDivergence). It stays public because the
// symmetry and row-permutation properties in tests/ot_property_test.cc need
// independent masks and row counts, which MsDivergence cannot express.
DivergenceResult MsDivergenceMasked(const Matrix& a, const Matrix& ma,
                                    const Matrix& b, const Matrix& mb,
                                    const SinkhornOptions& opts,
                                    bool with_grad);

// Plain (unmasked) Sinkhorn divergence S_λ(A, B) with squared-Euclidean
// ground cost. With `with_grad` it returns the gradients in both A
// (grad_xbar) and B (grad_b) from the same three solves — the DIM critic and
// RRSI move both sides.
DivergenceResult SinkhornDivergence(const Matrix& a, const Matrix& b,
                                    const SinkhornOptions& opts,
                                    bool with_grad);

// Training form (what MsLoss is built on): 2·OT_λ^m(X̄, X) − OT_λ^m(X̄, X̄),
// i.e. the MS divergence minus the OT_λ^m(X, X) self term — which is
// constant in X̄, so the gradient equals MsDivergence's exactly while one
// of the three Sinkhorn solves is skipped. The reported value is shifted by that
// (batch-dependent) constant; use MsDivergence when the exact divergence
// value matters.
DivergenceResult MsDivergenceForTraining(const Matrix& xbar, const Matrix& x,
                                         const Matrix& m,
                                         const SinkhornOptions& opts);

}  // namespace scis

#endif  // SCIS_OT_DIVERGENCE_H_
