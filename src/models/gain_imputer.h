// GAIN — generative adversarial imputation nets (Yoon et al., ICML'18).
//
// Generator G([x̃, m]) -> x̄ with x̃ = x ⊙ m + z ⊙ (1−m), z ~ U(0, 0.01);
// discriminator D([x̂, h]) predicts per-cell observedness, where the hint
// h = b ⊙ m + 0.5·(1−b) reveals a fraction (hint_rate) of the truth.
// Both nets are the §VI 2-layer fully-connected configuration. D minimizes
// cell-wise BCE against m; G minimizes the adversarial term on missing
// cells plus α × observed-reconstruction MSE.
//
// Implements GenerativeImputer so SCIS can (a) retrain the generator under
// the MS-divergence loss (DIM) and (b) clone the architecture for SSE's
// subset-size probes.
#ifndef SCIS_MODELS_GAIN_IMPUTER_H_
#define SCIS_MODELS_GAIN_IMPUTER_H_

#include "models/deep_common.h"

namespace scis {

struct GainImputerOptions {
  DeepOptions deep;
  double hint_rate = 0.9;
  double alpha = 100.0;     // reconstruction weight in the generator loss
  double noise_high = 0.01; // z ~ U(0, noise_high) on missing cells
  // Skip the discriminator update while its BCE is below this floor — the
  // standard balance heuristic that prevents D from overpowering G at
  // extreme missing rates (observed as generator collapse toward 0 on the
  // 81%-missing Search shape). 0 disables.
  double d_loss_floor = 0.15;
};

class GainImputer final : public GenerativeImputer {
 public:
  explicit GainImputer(GainImputerOptions opts = {});

  std::string name() const override { return "GAIN"; }
  Status Fit(const Dataset& data) override;
  Matrix Reconstruct(const Dataset& data) const override;

  // GenerativeImputer:
  ParamStore& generator_params() override { return gen_store_; }
  const ParamStore& generator_params() const override { return gen_store_; }
  Var ReconstructOnTape(Tape& tape, const Matrix& x, const Matrix& m,
                        bool train) override;

  const GainImputerOptions& options() const { return opts_; }
  double last_d_loss() const { return last_d_loss_; }
  double last_g_loss() const { return last_g_loss_; }

 private:
  void EnsureBuilt(size_t d);

  GainImputerOptions opts_;
  Rng rng_;
  ParamStore gen_store_, disc_store_;
  Adam gen_adam_, disc_adam_;
  std::unique_ptr<Mlp> generator_, discriminator_;
  bool built_ = false;
  double last_d_loss_ = 0.0, last_g_loss_ = 0.0;
  Tape disc_tape_, gen_tape_;  // persistent step tapes (pooled storage)
  std::vector<const Matrix*> grad_views_;
};

}  // namespace scis

#endif  // SCIS_MODELS_GAIN_IMPUTER_H_
