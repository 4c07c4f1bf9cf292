// MIDAE — multiple imputation with denoising autoencoders (Gondara & Wang).
// A 2-layer/128-unit autoencoder (the §VI configuration) is trained to
// reconstruct observed cells from dropout-corrupted mean-filled inputs;
// multiple imputation averages several stochastic (dropout-on) passes.
#ifndef SCIS_MODELS_MIDAE_IMPUTER_H_
#define SCIS_MODELS_MIDAE_IMPUTER_H_

#include "models/deep_common.h"

namespace scis {

struct MidaeImputerOptions {
  DeepOptions deep;
  size_t hidden = 128;   // paper: 2 layers with 128 units
  int num_imputations = 5;
};

class MidaeImputer final : public DeepImputerBase {
 public:
  explicit MidaeImputer(MidaeImputerOptions opts = {})
      : DeepImputerBase(opts.deep), mopts_(opts) {}

  std::string name() const override { return "MIDAE"; }
  Matrix Reconstruct(const Dataset& data) const override;

 protected:
  void BuildModel(size_t d) override;
  Var BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) override;

 private:
  MidaeImputerOptions mopts_;
  std::unique_ptr<Mlp> net_;
};

}  // namespace scis

#endif  // SCIS_MODELS_MIDAE_IMPUTER_H_
