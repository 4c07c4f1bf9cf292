// ImputationEngine: the inference half of the stack. Loads a self-contained
// checkpoint (generator weights + normalizer stats + column schema) once
// and answers imputation requests on raw rows — the serving shape GAN-based
// imputers assume when deployed on live incomplete records.
//
// The engine is immutable after Load and therefore shared across worker
// threads without locking (std::shared_ptr<const ImputationEngine>).
//
// Bit-identity contract: ImputeBatch replays the exact offline pipeline —
// min-max normalize with the stored stats, the generator forward through
// nn::InferForward (ReLU hidden layers, sigmoid output; the same fused
// linear forward GainImputer::Reconstruct and the FusedLinear tape op
// run), Eq. 1, inverse transform — and every output row depends only on
// its own input row. Serving a row alone, inside any micro-batch, or via
// the offline Imputer on the training machine produces bit-identical
// values; the testkit oracles rely on this. Retrieval augmentation keeps
// the contract: the attached index is immutable, so a row's output still
// depends only on its own input.
#ifndef SCIS_SERVE_ENGINE_H_
#define SCIS_SERVE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "index/ann_index.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "tensor/matrix.h"

namespace scis::serve {

// Retrieval-augmented serving: when an AnnIndex over the (normalized)
// training rows is attached, each missing cell blends the generator output
// with the observed-value mean of the k retrieved nearest training rows:
//   x̂ = (1 - blend) · generator + blend · neighbour_mean
// (generator-only where no retrieved neighbour observes the cell). blend=0
// reproduces the pure generator bit-exactly; blend=1 is pure kNN serving.
struct RetrievalOptions {
  size_t k = 10;
  size_t max_leaf_visits = 16;  // per-query leaf budget (0 = exact)
  double blend = 0.5;
};

// The column schema a checkpoint describes, in data-module terms.
std::vector<ColumnMeta> ColumnsFromMeta(const CheckpointMeta& meta);

class ImputationEngine {
 public:
  // Maps a checkpoint from disk (MappedCheckpoint::Map) and serves it
  // zero-copy: the engine's weight views point into the page-cache-backed
  // mapping, so a server hosting many models cold-starts without
  // materializing any weight buffers. Files without the v3 magic (including
  // the retired v1/v2 text formats) are InvalidArgument.
  static Result<std::shared_ptr<const ImputationEngine>> Load(
      const std::string& path);

  // Maps a checkpoint (zero-copy, as above) and attaches a saved AnnIndex
  // (scis_impute --save_index) for retrieval-augmented imputation.
  static Result<std::shared_ptr<const ImputationEngine>> Load(
      const std::string& path, const std::string& index_path,
      const RetrievalOptions& retrieval);

  // Builds an engine from an in-memory checkpoint (tests, benches).
  static Result<std::shared_ptr<const ImputationEngine>> FromCheckpoint(
      const Checkpoint& ckpt);

  // In-memory checkpoint + index over normalized training rows.
  static Result<std::shared_ptr<const ImputationEngine>> FromCheckpoint(
      const Checkpoint& ckpt, index::AnnIndex index,
      const RetrievalOptions& retrieval);

  size_t num_cols() const { return columns_.size(); }
  const std::vector<ColumnMeta>& columns() const { return columns_; }
  const std::string& model() const { return model_; }
  const std::vector<double>& norm_lo() const { return lo_; }
  const std::vector<double>& norm_hi() const { return hi_; }
  bool has_index() const { return !index_.empty(); }
  const RetrievalOptions& retrieval() const { return retrieval_; }

  // Imputes `rows` (raw units, quiet NaN = missing). Returns the completed
  // rows in raw units: observed cells pass through bit-exactly, missing
  // cells are filled per Eq. 1 from the generator forward pass. Thread-safe.
  Result<Matrix> ImputeBatch(const Matrix& rows) const;

 private:
  // One (name, shape, data) triple per parameter — the common input the
  // checkpoint and mmap construction paths both reduce to.
  struct ParamRef {
    const std::string* name;
    size_t rows, cols;
    const double* data;
  };

  ImputationEngine() = default;

  // Shared construction path; the public factories add constness (and,
  // optionally, the retrieval index) on top.
  static Result<std::shared_ptr<ImputationEngine>> BuildFromCheckpoint(
      const Checkpoint& ckpt);
  // Maps `path`; the engine's weight views point into the mapping, which
  // the engine keeps alive for its lifetime.
  static Result<std::shared_ptr<ImputationEngine>> BuildMapped(
      const std::string& path);
  static Result<std::shared_ptr<ImputationEngine>> BuildFromParts(
      int version, const CheckpointMeta& meta,
      const std::vector<ParamRef>& params);
  // Validates `index` against the schema and `retrieval`, then attaches it.
  Status AttachIndex(index::AnnIndex index, const RetrievalOptions& retrieval);

  std::string model_;
  std::vector<ColumnMeta> columns_;
  std::vector<double> lo_, hi_;
  // Generator layers. For checkpoint-built engines the views point into
  // owned_; for mapped engines, straight into the mmap (both anchored by
  // this object, so views never dangle).
  std::vector<LayerView> layers_;
  std::vector<Matrix> owned_;  // weight storage for checkpoint-built engines
  std::shared_ptr<const MappedCheckpoint> mapped_;  // anchor for mmap views
  index::AnnIndex index_;  // empty unless retrieval is attached
  RetrievalOptions retrieval_;
};

}  // namespace scis::serve

#endif  // SCIS_SERVE_ENGINE_H_
