// Checkpoint (de)serialization: one binary, mmap-able format so trained
// models can be checkpointed and shipped (train SCIS once, impute many files
// with scis_impute, serve them online with scis_serve, publish lifecycle
// generations).
//
// v3 layout (self-contained: weights + the metadata needed to impute raw
// rows):
//   [8 bytes]  magic "scisckp3"
//   [u32]      endian tag 0x01020304 (little-endian files only)
//   [u32]      model tag length, then the tag bytes
//   [u32]      column count d, then per column:
//                [u32 kind][u32 num_categories][u32 name_len][name bytes]
//   [d f64]    normalizer lo, [d f64] normalizer hi
//   [u32]      param count, then per param:
//                [u32 name_len][name bytes][u64 rows][u64 cols]
//                [u64 offset]  — element offset into the value blob
//   [pad]      zero padding to a 64-byte boundary
//   [blob]     all parameter values, row-major f64, each param aligned to
//              64 bytes within the blob
// Integers and doubles are little-endian host layout; the whole file can be
// mmap-ed and the value blob used in place (zero-copy weight loading via
// MappedCheckpoint — engines keep the mapping alive for as long as they
// serve from it).
//
// The retired v1/v2 text formats ("scis-params v1/v2") are not read: their
// files, like any other file without the v3 magic, load as InvalidArgument.
#ifndef SCIS_NN_SERIALIZE_H_
#define SCIS_NN_SERIALIZE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/param_store.h"

namespace scis {

// Per-column schema entry mirrored from data/dataset.h's ColumnMeta,
// expressed in plain types so nn stays independent of the data module.
struct CheckpointColumn {
  std::string name;
  int kind = 0;  // static_cast<int>(ColumnKind)
  int num_categories = 0;
};

// Everything beyond the weights that a loaded model needs to impute raw
// rows: the architecture tag, the column schema, and the min-max stats the
// training pipeline normalized with.
struct CheckpointMeta {
  std::string model;  // e.g. "GAIN"
  std::vector<CheckpointColumn> columns;
  std::vector<double> norm_lo, norm_hi;
};

struct NamedParam {
  std::string name;
  Matrix value;
};

struct Checkpoint {
  // 3 when loaded from a file; in-memory checkpoints may carry 2 (also
  // self-contained). Below 2 means weights only, which serving rejects.
  int version = 0;
  CheckpointMeta meta;
  std::vector<NamedParam> params;
};

// Writes a v3 checkpoint: `meta` plus every parameter in `store`.
// meta.columns / norm_lo / norm_hi must agree in size. Publishes
// atomically: the bytes go to a temp file in the same directory, which is
// fsync-ed, closed and renamed over `path`, and the directory is fsync-ed.
// A reader — including an engine still serving from an mmap of the old
// file — sees either the old checkpoint or the new one, never a torn or
// truncated file. On error the temp file is removed and `path` is
// untouched.
Status SaveCheckpoint(const ParamStore& store, const CheckpointMeta& meta,
                      const std::string& path);

// A v3 checkpoint mapped read-only into memory. Parameter values are views
// into the mapping (no copies); holders of a view must keep the
// MappedCheckpoint alive, which is why Map hands out a shared_ptr.
class MappedCheckpoint {
 public:
  struct ParamView {
    std::string name;
    size_t rows = 0, cols = 0;
    const double* data = nullptr;  // rows*cols doubles inside the mapping
  };

  static Result<std::shared_ptr<const MappedCheckpoint>> Map(
      const std::string& path);

  ~MappedCheckpoint();
  MappedCheckpoint(const MappedCheckpoint&) = delete;
  MappedCheckpoint& operator=(const MappedCheckpoint&) = delete;

  const CheckpointMeta& meta() const { return meta_; }
  const std::vector<ParamView>& params() const { return params_; }

  // Deep-copies into an owning Checkpoint (version 3).
  Checkpoint ToCheckpoint() const;

 private:
  MappedCheckpoint() = default;

  CheckpointMeta meta_;
  std::vector<ParamView> params_;
  void* map_base_ = nullptr;
  size_t map_len_ = 0;
};

// Reads a checkpoint without needing a pre-built store: Map, then
// ToCheckpoint (the mapping is released on return). Use
// MappedCheckpoint::Map directly to keep the zero-copy views.
Result<Checkpoint> LoadCheckpoint(const std::string& path);

}  // namespace scis

#endif  // SCIS_NN_SERIALIZE_H_
