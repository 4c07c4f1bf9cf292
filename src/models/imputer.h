// Imputation model interface (Definition 1).
//
// All models operate on datasets already normalized to [0,1]^d (see
// MinMaxNormalizer); Fit() trains on an incomplete dataset and
// Reconstruct() predicts every cell, after which Impute() applies Eq. 1:
//   X̂ = M ⊙ X + (1 − M) ⊙ X̄.
//
// GAN-based models additionally implement GenerativeImputer, the hook SCIS
// uses: DIM retrains the generator with the MS-divergence loss, and SSE
// probes the curvature with reconstruction gradients, then perturbs the
// generator's parameter vector in place (restoring θ0) — it never clones or
// retrains a model.
#ifndef SCIS_MODELS_IMPUTER_H_
#define SCIS_MODELS_IMPUTER_H_

#include <string>

#include "autodiff/tape.h"
#include "common/status.h"
#include "data/dataset.h"
#include "nn/param_store.h"
#include "tensor/rng.h"

namespace scis {

class Imputer {
 public:
  virtual ~Imputer() = default;

  virtual std::string name() const = 0;

  // Trains the model on an incomplete dataset (values normalized to [0,1]).
  virtual Status Fit(const Dataset& data) = 0;

  // Predicts every cell of `data` (both observed and missing positions).
  virtual Matrix Reconstruct(const Dataset& data) const = 0;

  // Eq. 1: observed cells kept, missing cells filled from Reconstruct().
  Matrix Impute(const Dataset& data) const;
};

// Interface for models whose reconstruction is produced by a differentiable
// generator — the family SCIS optimizes.
class GenerativeImputer : public Imputer {
 public:
  // The generator's trainable parameters (the θ of Theorem 1).
  virtual ParamStore& generator_params() = 0;
  virtual const ParamStore& generator_params() const = 0;

  // Builds the reconstruction X̄ of the batch (x, m) on `tape`,
  // differentiable w.r.t. the generator parameters. When `train` is true
  // the model may inject noise/dropout exactly as during Fit(). At
  // train=false the value equals Reconstruct() on the same rows bit for
  // bit, so gradient-free callers (SSE's output distance) use Reconstruct.
  virtual Var ReconstructOnTape(Tape& tape, const Matrix& x, const Matrix& m,
                                bool train) = 0;
};

}  // namespace scis

#endif  // SCIS_MODELS_IMPUTER_H_
