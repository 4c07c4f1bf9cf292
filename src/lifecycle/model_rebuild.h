// Rebuilds a *trainable* GenerativeImputer from a serving checkpoint — the
// bridge that lets the DriftController retrain the exact model the server is
// serving. The serving ImputationEngine is deliberately immutable and
// architecture-blind (it replays (W,b) layer pairs); retraining needs the
// real model class back so DIM can tape through it and SSE can flatten its
// parameter vector. The checkpoint's architecture tag picks the class
// (GAIN, GINN), a dummy forward pass forces the lazy network build at the
// checkpoint's column width, and the stored weights are copied in
// positionally (the same registration-order contract the engine loads by),
// with shape checks so a mismatched checkpoint fails loudly instead of
// serving garbage after the first retrain.
#ifndef SCIS_LIFECYCLE_MODEL_REBUILD_H_
#define SCIS_LIFECYCLE_MODEL_REBUILD_H_

#include <memory>

#include "models/imputer.h"
#include "nn/serialize.h"

namespace scis::lifecycle {

// Constructs the trainable model named by ckpt.meta.model ("GAIN" or
// "GINN"), builds it at the checkpoint's column width, and loads the
// checkpoint weights into its generator parameters. `seed` seeds the
// model's own rng (noise injection during retraining); the returned weights
// are exactly the checkpoint's. InvalidArgument on an unknown tag or a
// shape mismatch.
Result<std::unique_ptr<GenerativeImputer>> RebuildTrainableModel(
    const Checkpoint& ckpt, uint64_t seed);

}  // namespace scis::lifecycle

#endif  // SCIS_LIFECYCLE_MODEL_REBUILD_H_
