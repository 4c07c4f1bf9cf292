#include "serve/engine.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/matrix_ops.h"

namespace scis::serve {

std::vector<ColumnMeta> ColumnsFromMeta(const CheckpointMeta& meta) {
  std::vector<ColumnMeta> cols;
  cols.reserve(meta.columns.size());
  for (const CheckpointColumn& c : meta.columns) {
    ColumnMeta m;
    m.name = c.name;
    m.kind = static_cast<ColumnKind>(c.kind);
    m.num_categories = c.num_categories;
    cols.push_back(std::move(m));
  }
  return cols;
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::Load(
    const std::string& path) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildMapped(path));
  return std::shared_ptr<const ImputationEngine>(std::move(engine));
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::Load(
    const std::string& path, const std::string& index_path,
    const RetrievalOptions& retrieval) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildMapped(path));
  SCIS_ASSIGN_OR_RETURN(index::AnnIndex index,
                        index::AnnIndex::Load(index_path));
  SCIS_RETURN_NOT_OK(engine->AttachIndex(std::move(index), retrieval));
  return std::shared_ptr<const ImputationEngine>(std::move(engine));
}

Result<std::shared_ptr<ImputationEngine>> ImputationEngine::BuildMapped(
    const std::string& path) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<const MappedCheckpoint> mapped,
                        MappedCheckpoint::Map(path));
  std::vector<ParamRef> refs;
  refs.reserve(mapped->params().size());
  for (const MappedCheckpoint::ParamView& p : mapped->params()) {
    refs.push_back({&p.name, p.rows, p.cols, p.data});
  }
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromParts(3, mapped->meta(), refs));
  engine->mapped_ = std::move(mapped);  // keep the mmap alive for the views
  return engine;
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::FromCheckpoint(
    const Checkpoint& ckpt, index::AnnIndex index,
    const RetrievalOptions& retrieval) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromCheckpoint(ckpt));
  SCIS_RETURN_NOT_OK(engine->AttachIndex(std::move(index), retrieval));
  return std::shared_ptr<const ImputationEngine>(std::move(engine));
}

Status ImputationEngine::AttachIndex(index::AnnIndex index,
                                     const RetrievalOptions& retrieval) {
  if (index.empty()) {
    return Status::InvalidArgument("retrieval index has no rows");
  }
  if (index.num_cols() != num_cols()) {
    return Status::InvalidArgument(
        "retrieval index is " + std::to_string(index.num_cols()) +
        "-column, checkpoint schema is " + std::to_string(num_cols()));
  }
  if (retrieval.k == 0 || retrieval.blend < 0.0 || retrieval.blend > 1.0) {
    return Status::InvalidArgument("retrieval needs k >= 1, blend in [0,1]");
  }
  index_ = std::move(index);
  retrieval_ = retrieval;
  return Status::OK();
}

Result<std::shared_ptr<const ImputationEngine>> ImputationEngine::FromCheckpoint(
    const Checkpoint& ckpt) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromCheckpoint(ckpt));
  return std::shared_ptr<const ImputationEngine>(std::move(engine));
}

Result<std::shared_ptr<ImputationEngine>> ImputationEngine::BuildFromCheckpoint(
    const Checkpoint& ckpt) {
  std::vector<ParamRef> refs;
  refs.reserve(ckpt.params.size());
  for (const NamedParam& p : ckpt.params) {
    refs.push_back({&p.name, p.value.rows(), p.value.cols(), p.value.data()});
  }
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<ImputationEngine> engine,
                        BuildFromParts(ckpt.version, ckpt.meta, refs));
  // Copy the weights into engine-owned storage and retarget the views: the
  // caller's Checkpoint may not outlive the engine. Matrix moves keep their
  // heap buffers, so the views stay valid as owned_ grows.
  engine->owned_.reserve(ckpt.params.size());
  auto own = [&](const double* data, size_t rows, size_t cols) {
    Matrix copy(rows, cols);
    std::copy(data, data + copy.size(), copy.data());
    engine->owned_.push_back(std::move(copy));
    return engine->owned_.back().data();
  };
  for (LayerView& l : engine->layers_) {
    l.w = own(l.w, l.in, l.out);
    l.b = own(l.b, 1, l.out);
  }
  return engine;
}

Result<std::shared_ptr<ImputationEngine>> ImputationEngine::BuildFromParts(
    int version, const CheckpointMeta& meta,
    const std::vector<ParamRef>& params) {
  if (version < 2) {
    return Status::InvalidArgument(
        "checkpoint is not self-contained (weights only); re-save with "
        "scis_impute --save_params to get normalizer stats and schema");
  }
  if (meta.model != "GAIN") {
    return Status::NotImplemented("serving supports feedforward GAIN-style "
                                  "generators; checkpoint model is '" +
                                  meta.model + "'");
  }
  const size_t d = meta.columns.size();
  if (d == 0) return Status::InvalidArgument("checkpoint has no columns");
  if (meta.norm_lo.size() != d || meta.norm_hi.size() != d) {
    return Status::InvalidArgument("normalizer stats disagree with schema");
  }
  for (size_t j = 0; j < d; ++j) {
    if (!std::isfinite(meta.norm_lo[j]) || !std::isfinite(meta.norm_hi[j]) ||
        meta.norm_hi[j] <= meta.norm_lo[j]) {
      return Status::InvalidArgument("normalizer stats invalid at column " +
                                     std::to_string(j));
    }
  }
  if (params.empty() || params.size() % 2 != 0) {
    return Status::InvalidArgument(
        "generator parameters must be (W, b) pairs; checkpoint has " +
        std::to_string(params.size()));
  }

  auto engine = std::shared_ptr<ImputationEngine>(new ImputationEngine());
  engine->model_ = meta.model;
  engine->lo_ = meta.norm_lo;
  engine->hi_ = meta.norm_hi;
  engine->columns_ = ColumnsFromMeta(meta);

  // Reassemble the generator MLP: (W: in x out, b: 1 x out) pairs chained
  // [x, m] (2d) -> ... -> d, ReLU hidden / sigmoid output (GAIN §VI).
  const size_t num_layers = params.size() / 2;
  size_t expect_in = 2 * d;
  for (size_t l = 0; l < num_layers; ++l) {
    const ParamRef& w = params[2 * l];
    const ParamRef& b = params[2 * l + 1];
    if (w.rows != expect_in) {
      return Status::InvalidArgument(
          "layer " + std::to_string(l) + " weight '" + *w.name + "' is " +
          std::to_string(w.rows) + "-in, expected " +
          std::to_string(expect_in));
    }
    if (b.rows != 1 || b.cols != w.cols) {
      return Status::InvalidArgument("layer " + std::to_string(l) +
                                     " bias '" + *b.name +
                                     "' does not match its weight");
    }
    engine->layers_.push_back(
        {w.data, b.data, w.rows, w.cols,
         l + 1 == num_layers ? Activation::kSigmoid : Activation::kRelu});
    expect_in = w.cols;
  }
  if (expect_in != d) {
    return Status::InvalidArgument("generator output width " +
                                   std::to_string(expect_in) +
                                   " does not match the " +
                                   std::to_string(d) + "-column schema");
  }
  return engine;
}

Result<Matrix> ImputationEngine::ImputeBatch(const Matrix& rows) const {
  SCIS_TRACE_SPAN("serve.engine.impute");
  static obs::Counter* rows_imputed =
      obs::Registry::Global().GetCounter("serve.engine.rows");
  if (rows.rows() == 0) return Status::InvalidArgument("empty request");
  const size_t d = num_cols();
  if (rows.cols() != d) {
    return Status::InvalidArgument("request has " +
                                   std::to_string(rows.cols()) +
                                   " columns, model expects " +
                                   std::to_string(d));
  }
  const size_t n = rows.rows();

  // Normalize with the stored training stats; missing cells (NaN) hold 0 in
  // x and 0 in m — exactly what MinMaxNormalizer::Transform produces.
  Matrix x(n, d), m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const double v = rows(i, j);
      if (std::isnan(v)) continue;
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite value at cell (" +
                                       std::to_string(i) + ", " +
                                       std::to_string(j) + ")");
      }
      x(i, j) = (v - lo_[j]) / (hi_[j] - lo_[j]);
      m(i, j) = 1.0;
    }
  }

  // The offline tape-free forward, so values match the offline imputer.
  Matrix h = InferForward(layers_, ConcatCols(x, m));

  // Retrieval augmentation: blend each missing cell with the observed-value
  // mean of the k nearest training rows (normalized space, same mask-aware
  // metric as the offline kNN imputer). Cells no neighbour observes — and
  // rows with no co-observed coordinate, which retrieve nothing — keep the
  // pure generator value. All rows are searched first, under one span.
  if (!index_.empty()) {
    static obs::Counter* retrieved =
        obs::Registry::Global().GetCounter("serve.engine.retrieval_queries");
    static obs::Counter* blended =
        obs::Registry::Global().GetCounter("serve.engine.retrieval_cells");
    index::SearchOptions sopts;
    sopts.k = retrieval_.k;
    sopts.max_leaf_visits = retrieval_.max_leaf_visits;
    const double blend = retrieval_.blend;
    std::vector<std::vector<index::Neighbor>> found(n);
    {
      SCIS_TRACE_SPAN("index.search");
      for (size_t i = 0; i < n; ++i) {
        found[i] = index_.Search(x.row_data(i), m.row_data(i), sopts);
      }
    }
    retrieved->Add(n);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<index::Neighbor>& nbrs = found[i];
      if (nbrs.empty()) continue;
      for (size_t j = 0; j < d; ++j) {
        if (m(i, j) == 1.0) continue;
        double sum = 0.0, cnt = 0.0;
        for (const index::Neighbor& nb : nbrs) {
          sum += index_.mask()(nb.row, j) * index_.values()(nb.row, j);
          cnt += index_.mask()(nb.row, j);
        }
        if (cnt > 0.0) {
          h(i, j) = (1.0 - blend) * h(i, j) + blend * (sum / cnt);
          blended->Add(1);
        }
      }
    }
  }

  // Eq. 1 + inverse transform: observed cells keep their exact raw input;
  // missing cells denormalize the generator output with the stored stats,
  // matching MinMaxNormalizer::InverseTransform.
  Matrix out = rows;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (std::isnan(rows(i, j))) {
        out(i, j) = lo_[j] + h(i, j) * (hi_[j] - lo_[j]);
      }
    }
  }
  rows_imputed->Add(n);
  return out;
}

}  // namespace scis::serve
