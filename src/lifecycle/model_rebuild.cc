#include "lifecycle/model_rebuild.h"

#include <algorithm>

#include "autodiff/tape.h"
#include "models/gain_imputer.h"
#include "models/ginn_imputer.h"

namespace scis::lifecycle {

Result<std::unique_ptr<GenerativeImputer>> RebuildTrainableModel(
    const Checkpoint& ckpt, uint64_t seed) {
  const size_t d = ckpt.meta.columns.size();
  if (d == 0) {
    return Status::InvalidArgument(
        "checkpoint has no column schema, so it cannot seed a lifecycle; "
        "re-save it with scis_impute --save_params");
  }

  std::unique_ptr<GenerativeImputer> model;
  if (ckpt.meta.model == "GAIN") {
    GainImputerOptions opts;
    opts.deep.seed = seed;
    model = std::make_unique<GainImputer>(opts);
  } else if (ckpt.meta.model == "GINN") {
    GinnImputerOptions opts;
    opts.deep.seed = seed;
    model = std::make_unique<GinnImputer>(opts);
  } else {
    return Status::InvalidArgument("cannot rebuild a trainable \"" +
                                   ckpt.meta.model +
                                   "\" model (GAIN and GINN retrain)");
  }

  // Force the lazy network build at width d. The dummy batch is sized so
  // GINN's batch-local kNN graph always has enough neighbours; all-zero
  // fully-observed rows are fine — only the shapes matter here.
  {
    Tape tape;
    const size_t n = std::max<size_t>(16, 2);
    Matrix x(n, d);
    Matrix m = Matrix::Ones(n, d);
    model->ReconstructOnTape(tape, x, m, /*train=*/false);
    model->generator_params().DropBindings();  // drop the dummy bindings
  }

  // Positional weight load, mirroring the engine's (W, b) pair contract.
  ParamStore& store = model->generator_params();
  if (store.size() != ckpt.params.size()) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(ckpt.params.size()) +
        " params but a " + ckpt.meta.model + " generator at d=" +
        std::to_string(d) + " has " + std::to_string(store.size()));
  }
  for (size_t i = 0; i < store.size(); ++i) {
    const Matrix& src = ckpt.params[i].value;
    Matrix& dst = store.value(i);
    if (src.rows() != dst.rows() || src.cols() != dst.cols()) {
      return Status::InvalidArgument(
          "param " + std::to_string(i) + " (" + ckpt.params[i].name +
          ") is " + std::to_string(src.rows()) + "x" +
          std::to_string(src.cols()) + " in the checkpoint but " +
          std::to_string(dst.rows()) + "x" + std::to_string(dst.cols()) +
          " in the rebuilt generator");
    }
    dst = src;
  }
  return model;
}

}  // namespace scis::lifecycle
