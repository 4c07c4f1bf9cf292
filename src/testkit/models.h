// A minimal GenerativeImputer for oracle tests: a smooth MLP generator
// (no relu, no noise, no dropout) over the GAIN-style input [x ⊙ m, m].
// Smoothness keeps central-difference oracles reliable, and the parameter
// count stays small enough for the dense Gauss–Newton reference.
#ifndef SCIS_TESTKIT_MODELS_H_
#define SCIS_TESTKIT_MODELS_H_

#include <memory>

#include "models/imputer.h"
#include "nn/optimizer.h"
#include "testkit/generators.h"

namespace scis::testkit {

class TinyMlpModel final : public GenerativeImputer {
 public:
  // `config.dims` must map 2d -> d for column count d. Use DefaultConfig()
  // or GenMlpConfig(rng, 2 * d, d) (activations are already smooth-only).
  TinyMlpModel(const MlpConfig& config, size_t d);

  // {2d, d+2, d} with tanh hidden and sigmoid output.
  static MlpConfig DefaultConfig(size_t d, uint64_t seed);

  std::string name() const override { return "TinyMlp"; }
  // A few full-batch Adam steps on observed-cell MSE — enough to move θ0
  // off its random initialization so curvature is model-dependent.
  Status Fit(const Dataset& data) override;
  Matrix Reconstruct(const Dataset& data) const override;

  ParamStore& generator_params() override { return store_; }
  const ParamStore& generator_params() const override { return store_; }
  Var ReconstructOnTape(Tape& tape, const Matrix& x, const Matrix& m,
                        bool train) override;

  int fit_steps = 20;
  double learning_rate = 0.01;

 private:
  size_t d_;
  ParamStore store_;
  std::unique_ptr<Mlp> mlp_;
};

}  // namespace scis::testkit

#endif  // SCIS_TESTKIT_MODELS_H_
