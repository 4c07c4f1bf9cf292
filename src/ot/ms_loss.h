// Autodiff bridge for the MS-divergence imputation loss
//   L_s(X, M) = S_m(ν̄_x̄ || µ_x) / (2n)
// Builds a scalar Var on xbar's tape whose backward pass injects the
// analytic Prop.-1 gradient, so the chain rule continues into the
// generator parameters exactly as Eq. 3 prescribes.
//
// The value is computed without the OT_λ^m(X, X) self term, which does not
// depend on X̄ (MsDivergenceForTraining): one Sinkhorn solve fewer per
// step, the same gradient, and a value shifted by the constant
// OT_λ^m(X, X)/(2n). Loss differences on a fixed batch are exact; use
// MsDivergence when the divergence value itself matters.
#ifndef SCIS_OT_MS_LOSS_H_
#define SCIS_OT_MS_LOSS_H_

#include "autodiff/tape.h"
#include "ot/divergence.h"

namespace scis {

// xbar: reconstruction produced by a differentiable model (n,d);
// x/m: constant data batch and mask. Gradient flows only into xbar.
Var MsLoss(Var xbar, const Matrix& x, const Matrix& m,
           const SinkhornOptions& opts);

// Sinkhorn-divergence loss with gradients into BOTH sides: S_λ(a, b)/(2n),
// from one three-solve SinkhornDivergence call. The DIM critic needs this —
// the discriminator ascends the divergence of embedded batches while the
// generator descends it (§IV-B).
Var SinkhornLossBoth(Var a, Var b, const SinkhornOptions& opts);

}  // namespace scis

#endif  // SCIS_OT_MS_LOSS_H_
