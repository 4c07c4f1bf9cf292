// Shared load-and-validate path for checkpoints entering a *running* server.
//
// Two callers hot-swap models under traffic — scis_serve's SIGHUP reload
// and the lifecycle CheckpointPublisher — and both must apply the same
// acceptance rules or swap behaviour diverges between the operator path and
// the automated path. The rules beyond what ImputationEngine::Load already
// enforces (parseable file, (W,b) layer structure, schema/normalizer
// agreement, and index/schema agreement when an index is attached):
//
//   * schema width: when `expect_cols` is non-zero the checkpoint must
//     serve exactly that many columns, otherwise the swap would be silently
//     unroutable (ImputationServer::HotSwap keys models by width);
//   * serveability probe: a single all-missing row is imputed through the
//     loaded engine and every output cell must be finite — a checkpoint
//     whose weights went NaN during retraining is rejected here, before it
//     ever reaches the server.
#ifndef SCIS_SERVE_CHECKPOINT_LOADER_H_
#define SCIS_SERVE_CHECKPOINT_LOADER_H_

#include <memory>
#include <string>

#include "serve/engine.h"

namespace scis::serve {

// Loads a checkpoint from `path` and validates it for hot-swap.
// `expect_cols` = 0 skips the width check (multi-model reload, where
// HotSwap itself resolves the hosted model). A non-empty `index_path`
// attaches that index with `retrieval`, exactly as ImputationEngine::Load
// does, so a reload keeps a retrieval-serving model retrieval-serving.
// InvalidArgument on a width mismatch; Internal when the probe row imputes
// to non-finite values.
Result<std::shared_ptr<const ImputationEngine>> LoadAndValidateCheckpoint(
    const std::string& path, size_t expect_cols = 0,
    const std::string& index_path = "",
    const RetrievalOptions& retrieval = {});

}  // namespace scis::serve

#endif  // SCIS_SERVE_CHECKPOINT_LOADER_H_
