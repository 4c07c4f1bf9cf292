// DataWig-style MLP imputer (Biessmann et al.): a feed-forward network maps
// the mean-filled row plus its mask to a reconstruction of every column,
// trained with MSE on the observed cells. (DataWig proper fits one model
// per target column with learned featurizers; the joint network is the
// numeric-data equivalent and trains d× faster — substitution in
// DESIGN.md.)
#ifndef SCIS_MODELS_MLP_IMPUTER_H_
#define SCIS_MODELS_MLP_IMPUTER_H_

#include "models/deep_common.h"

namespace scis {

struct MlpImputerOptions {
  DeepOptions deep;
  size_t hidden = 64;
  int hidden_layers = 2;
};

class MlpImputer final : public DeepImputerBase {
 public:
  explicit MlpImputer(MlpImputerOptions opts = {})
      : DeepImputerBase(opts.deep), mopts_(opts) {}

  std::string name() const override { return "DataWig"; }
  Matrix Reconstruct(const Dataset& data) const override;

 protected:
  void BuildModel(size_t d) override;
  Var BuildLoss(Tape& tape, const Matrix& x, const Matrix& m) override;

 private:
  MlpImputerOptions mopts_;
  std::unique_ptr<Mlp> net_;
};

}  // namespace scis

#endif  // SCIS_MODELS_MLP_IMPUTER_H_
