#include "index/ann_index.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <queue>
#include <sstream>
#include <utility>

#include "common/file_publish.h"
#include "common/stopwatch.h"
#include "kernels/masked_distance.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "tensor/rng.h"

namespace scis::index {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Side tiles at or below this fill (observed cells over rows × columns) are
// scanned as coordinate lists, denser ones as dense tiles. Side rows observe
// at most half the columns, so side tiles are at most half full. At d = 64
// lists were faster up to about 30% fill and slower from about 40%
// (EXPERIMENTS.md, "Side-list coordinate lists").
constexpr double kSideListMaxFill = 1.0 / 3.0;

// splitmix64-style stream splitter: the seed for child `salt` of a node
// seeded with `s`. Depends only on (s, salt), never on execution order or
// thread count.
uint64_t MixSeed(uint64_t s, uint64_t salt) {
  uint64_t z = s + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Ascending (distance, row): the one tie-break order used everywhere —
// brute force, leaf scans, and the traversal heap — so every search backend
// agrees exactly.
bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.row < b.row;
}

}  // namespace

// Recursive hierarchical k-means build. All state lives here so AnnIndex
// itself stays a plain serializable value.
struct AnnIndex::Builder {
  const Matrix& x;
  const Matrix& m;
  const std::vector<double>& col_means;
  const IndexOptions& opts;
  std::vector<Node>* nodes;
  std::vector<size_t>* row_ids;
  std::vector<double>* centroid_data;  // num_nodes x d, row-major
  size_t d;

  // Row r with missing coordinates filled from the observed column means —
  // the mask-projected point k-means clusters.
  void Densify(size_t r, double* out) const {
    const double* xr = x.row_data(r);
    const double* mr = m.row_data(r);
    for (size_t j = 0; j < d; ++j) {
      out[j] = mr[j] == 1.0 ? xr[j] : col_means[j];
    }
  }

  double RowToCentroid(size_t r, const std::vector<double>& c) const {
    return kernels::MaskedRowToDenseDistance(x.row_data(r), m.row_data(r),
                                             c.data(), d);
  }

  // Seeded k-means++ then Lloyd refinement over row_ids[begin, end).
  // Returns the final assignment (0..B-1 per row) and the centroids.
  std::vector<uint32_t> KMeans(size_t begin, size_t end, uint64_t seed,
                               std::vector<std::vector<double>>* centroids) {
    const size_t span = end - begin;
    const size_t B = std::min(std::max<size_t>(2, opts.branching), span);
    const size_t grain = runtime::GrainForWork(span, B * d);
    Rng rng(seed);
    auto& C = *centroids;
    C.assign(B, std::vector<double>(d, 0.0));

    // k-means++: first centroid uniform, then proportional to the current
    // squared distance to the nearest chosen centroid. Rows at +inf from
    // everything (empty masks) get weight 0 — they never seed a cluster.
    Densify((*row_ids)[begin + rng.UniformIndex(span)], C[0].data());
    std::vector<double> best(span, kInf);
    for (size_t t = 1; t < B; ++t) {
      const std::vector<double>& last = C[t - 1];
      runtime::ParallelFor(0, span, grain, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          const double dist = RowToCentroid((*row_ids)[begin + i], last);
          if (dist < best[i]) best[i] = dist;
        }
      });
      double total = 0.0;
      for (size_t i = 0; i < span; ++i) {
        if (!std::isinf(best[i])) total += best[i];
      }
      size_t pick = 0;
      if (total > 0.0) {
        const double r = rng.Uniform() * total;
        double acc = 0.0;
        pick = span - 1;
        for (size_t i = 0; i < span; ++i) {
          if (std::isinf(best[i])) continue;
          acc += best[i];
          if (acc >= r) {
            pick = i;
            break;
          }
        }
      } else {
        pick = rng.UniformIndex(span);
      }
      Densify((*row_ids)[begin + pick], C[t].data());
    }

    // Lloyd: parallel assignment, ordered-reduce centroid update. Sums are
    // combined in ascending chunk order, so the means — and therefore the
    // whole tree — are bit-identical at any thread count.
    struct Accum {
      std::vector<double> sum, cnt;   // B x d, observed cells only
      std::vector<size_t> members;    // rows per cluster
    };
    std::vector<uint32_t> assign(span, 0);
    auto assign_pass = [&] {
      runtime::ParallelFor(0, span, grain, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          const size_t r = (*row_ids)[begin + i];
          double best_dist = kInf;
          uint32_t best_c = 0;
          for (size_t c = 0; c < B; ++c) {
            const double dist = RowToCentroid(r, C[c]);
            if (dist < best_dist) {
              best_dist = dist;
              best_c = static_cast<uint32_t>(c);
            }
          }
          assign[i] = best_c;
        }
      });
    };
    for (int it = 0; it < opts.kmeans_iters; ++it) {
      assign_pass();
      Accum acc = runtime::ParallelReduce<Accum>(
          0, span, grain, Accum{},
          [&](size_t b, size_t e) {
            Accum a;
            a.sum.assign(B * d, 0.0);
            a.cnt.assign(B * d, 0.0);
            a.members.assign(B, 0);
            for (size_t i = b; i < e; ++i) {
              const size_t r = (*row_ids)[begin + i];
              const double* xr = x.row_data(r);
              const double* mr = m.row_data(r);
              double* s = a.sum.data() + assign[i] * d;
              double* c = a.cnt.data() + assign[i] * d;
              for (size_t j = 0; j < d; ++j) {
                s[j] += mr[j] * xr[j];
                c[j] += mr[j];
              }
              ++a.members[assign[i]];
            }
            return a;
          },
          [&](Accum lhs, Accum rhs) {
            if (lhs.sum.empty()) return rhs;
            for (size_t k = 0; k < B * d; ++k) {
              lhs.sum[k] += rhs.sum[k];
              lhs.cnt[k] += rhs.cnt[k];
            }
            for (size_t c = 0; c < B; ++c) lhs.members[c] += rhs.members[c];
            return lhs;
          });
      for (size_t c = 0; c < B; ++c) {
        if (acc.members[c] == 0) continue;  // empty cluster keeps its seed
        for (size_t j = 0; j < d; ++j) {
          const double cnt = acc.cnt[c * d + j];
          C[c][j] = cnt > 0.0 ? acc.sum[c * d + j] / cnt : col_means[j];
        }
      }
    }
    assign_pass();  // final assignment against the refined centroids
    return assign;
  }

  // Builds the node covering row_ids[begin, end); `centroid` is this node's
  // centroid from the parent's k-means (root passes the column means).
  // Returns the node's index.
  size_t BuildNode(size_t begin, size_t end, uint64_t seed,
                   const std::vector<double>& centroid) {
    const size_t node_idx = nodes->size();
    nodes->push_back(Node{{}, begin, end});
    centroid_data->insert(centroid_data->end(), centroid.begin(),
                          centroid.end());
    const size_t span = end - begin;
    if (span <= opts.max_leaf_rows) return node_idx;

    std::vector<std::vector<double>> C;
    std::vector<uint32_t> assign = KMeans(begin, end, seed, &C);
    const size_t B = C.size();

    // Stable counting-sort partition of row_ids[begin, end) by cluster.
    std::vector<size_t> counts(B, 0);
    for (const uint32_t a : assign) ++counts[a];
    size_t non_empty = 0;
    for (const size_t c : counts) non_empty += c > 0 ? 1 : 0;
    if (non_empty < 2) return node_idx;  // unsplittable: stay a leaf

    std::vector<size_t> offsets(B, 0);
    for (size_t c = 1; c < B; ++c) offsets[c] = offsets[c - 1] + counts[c - 1];
    std::vector<size_t> scratch(span);
    for (size_t i = 0; i < span; ++i) {
      scratch[offsets[assign[i]]++] = (*row_ids)[begin + i];
    }
    std::copy(scratch.begin(), scratch.end(), row_ids->begin() + begin);

    size_t child_begin = begin;
    for (size_t c = 0; c < B; ++c) {
      if (counts[c] == 0) continue;
      const size_t child_end = child_begin + counts[c];
      const size_t child =
          BuildNode(child_begin, child_end, MixSeed(seed, c), C[c]);
      (*nodes)[node_idx].children.push_back(child);
      child_begin = child_end;
    }
    return node_idx;
  }
};

AnnIndex AnnIndex::Build(const Matrix& values, const Matrix& mask,
                         const IndexOptions& opts) {
  SCIS_TRACE_SPAN("index.build");
  SCIS_CHECK(values.SameShape(mask));
  static obs::Counter* builds =
      obs::Registry::Global().GetCounter("index.builds");
  static obs::Counter* rows_indexed =
      obs::Registry::Global().GetCounter("index.rows_indexed");
  Stopwatch watch;

  AnnIndex idx;
  idx.opts_ = opts;
  idx.values_ = values;
  idx.mask_ = mask;
  const size_t n = values.rows(), d = values.cols();
  idx.col_means_.assign(d, 0.0);
  for (size_t j = 0; j < d; ++j) {
    double sum = 0.0, cnt = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += mask(i, j) * values(i, j);
      cnt += mask(i, j);
    }
    idx.col_means_[j] = cnt > 0.0 ? sum / cnt : 0.0;
  }
  idx.sparse_obs_threshold_ =
      opts.sparse_obs_max == IndexOptions::kAutoSparse ? d / 2
                                                       : opts.sparse_obs_max;
  if (n > 0) {
    // Sparse rows (observing ≤ threshold coordinates) can reach a tiny
    // rescaled distance against almost any query, yet densify to near the
    // column means — unclusterable. They live in an exhaustively scanned
    // side list; the tree covers only the dense rows.
    idx.row_ids_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      size_t obs = 0;
      for (size_t j = 0; j < d; ++j) obs += mask(i, j) == 1.0 ? 1 : 0;
      if (obs <= idx.sparse_obs_threshold_) {
        idx.side_rows_.push_back(i);
      } else {
        idx.row_ids_.push_back(i);
      }
    }
    if (!idx.row_ids_.empty()) {
      std::vector<double> centroid_data;
      Builder builder{values,      mask,          idx.col_means_, opts,
                      &idx.nodes_, &idx.row_ids_, &centroid_data, d};
      builder.BuildNode(0, idx.row_ids_.size(), opts.seed, idx.col_means_);
      idx.centroids_ =
          Matrix::FromFlat(idx.nodes_.size(), d, std::move(centroid_data));
    }
    idx.PackRows();
  }

  builds->Add(1);
  rows_indexed->Add(n);
  obs::Registry::Global().GetGauge("index.last_build_seconds")
      ->Set(watch.ElapsedSeconds());
  obs::Registry::Global().GetGauge("index.last_build_nodes")
      ->Set(static_cast<double>(idx.num_nodes()));
  obs::Registry::Global().GetGauge("index.last_build_leaves")
      ->Set(static_cast<double>(idx.num_leaves()));
  obs::Registry::Global().GetGauge("index.last_build_depth")
      ->Set(static_cast<double>(idx.depth()));
  obs::Registry::Global().GetGauge("index.last_build_side_rows")
      ->Set(static_cast<double>(idx.side_rows_.size()));
  obs::Registry::Global().GetGauge("index.last_build_list_tiles")
      ->Set(static_cast<double>(std::count_if(
          idx.side_tiles_.begin(), idx.side_tiles_.end(),
          [](const SideTile& t) { return t.lists; })));
  return idx;
}

// Copies rows into the scan storage as tiles: each leaf, and the side list,
// is cut into pieces of at most kMaskedScanChunk rows. Leaf tiles, and side
// tiles denser than kSideListMaxFill, are stored coordinate-major in one
// packed block, the tree rows in leaf order first. A leaf scan then streams
// one contiguous stretch instead of gathering scattered rows (at large n the
// scattered gather is the difference between beating the perfectly
// sequential brute-force loop and losing to it), and a query touches only
// the runs of the coordinates it observes. Missing cells pack as +0.0 so
// that every term the scan adds for them is an exact +0.0. Sparser side
// tiles keep only their observed cells, as one list per coordinate, so a
// scan skips those +0.0 terms instead of adding them (see
// kernels/masked_distance.h).
void AnnIndex::PackRows() {
  constexpr size_t kChunk = kernels::kMaskedScanChunk;
  static_assert(kChunk <= 256, "list positions are one byte");
  const size_t d = values_.cols();
  packed_cols_.clear();
  packed_weights_.clear();
  side_tiles_.clear();
  list_starts_.clear();
  list_pos_.clear();
  list_vals_.clear();
  // Appends rows ids[0, len) as one dense tile; returns its first element.
  auto pack_dense = [&](const size_t* ids, size_t len) {
    const size_t at = packed_cols_.size();
    packed_cols_.resize(at + len * d, 0.0);
    packed_weights_.resize(at + len * d, 0.0);
    for (size_t i = 0; i < len; ++i) {
      for (size_t j = 0; j < d; ++j) {
        if (mask_(ids[i], j) != 1.0) continue;
        packed_cols_[at + j * len + i] = values_(ids[i], j);
        packed_weights_[at + j * len + i] = 1.0;
      }
    }
    return at;
  };
  for (const Node& node : nodes_) {
    if (!node.children.empty()) continue;
    for (size_t s = node.begin; s < node.end; s += kChunk) {
      pack_dense(row_ids_.data() + s, std::min(kChunk, node.end - s));
    }
  }
  for (size_t s = 0; s < side_rows_.size(); s += kChunk) {
    const size_t* ids = side_rows_.data() + s;
    SideTile tile;
    tile.len = std::min(kChunk, side_rows_.size() - s);
    size_t observed = 0;
    for (size_t i = 0; i < tile.len; ++i) {
      for (size_t j = 0; j < d; ++j) observed += mask_(ids[i], j) == 1.0;
    }
    tile.lists = static_cast<double>(observed) <=
                 kSideListMaxFill * static_cast<double>(tile.len * d);
    if (tile.lists) {
      tile.at = list_starts_.size();
      for (size_t j = 0; j < d; ++j) {
        list_starts_.push_back(list_pos_.size());
        for (size_t i = 0; i < tile.len; ++i) {
          if (mask_(ids[i], j) != 1.0) continue;
          list_pos_.push_back(static_cast<uint8_t>(i));
          list_vals_.push_back(values_(ids[i], j));
        }
      }
      list_starts_.push_back(list_pos_.size());
    } else {
      tile.at = pack_dense(ids, tile.len);
    }
    side_tiles_.push_back(tile);
  }
}

size_t AnnIndex::num_leaves() const {
  size_t leaves = 0;
  for (const Node& node : nodes_) leaves += node.children.empty() ? 1 : 0;
  return leaves;
}

size_t AnnIndex::depth() const {
  if (nodes_.empty()) return 0;
  // nodes_ is in pre-order, so children always follow parents; one backward
  // sweep computes subtree heights without recursion.
  std::vector<size_t> height(nodes_.size(), 1);
  for (size_t i = nodes_.size(); i-- > 0;) {
    for (const size_t c : nodes_[i].children) {
      height[i] = std::max(height[i], height[c] + 1);
    }
  }
  return height[0];
}

void AnnIndex::SearchInto(const double* query, const double* query_mask,
                          const SearchOptions& opts, size_t exclude,
                          std::vector<Neighbor>* out) const {
  static obs::Counter* queries =
      obs::Registry::Global().GetCounter("index.queries");
  static obs::Counter* leaf_visits =
      obs::Registry::Global().GetCounter("index.leaf_visits");
  static obs::Counter* rows_scanned =
      obs::Registry::Global().GetCounter("index.rows_scanned");
  static obs::Counter* sparse_queries =
      obs::Registry::Global().GetCounter("index.sparse_queries");

  out->clear();
  queries->Add(1);
  if (num_rows() == 0 || opts.k == 0) return;
  const size_t d = values_.cols();
  std::vector<size_t> observed;  // the query's observed coordinates, ascending
  for (size_t j = 0; j < d; ++j) {
    if (query_mask[j] == 1.0) observed.push_back(j);
  }
  if (observed.empty()) return;  // at +inf from every row

  // The best (distance, row) candidates seen so far, ascending, at most k.
  std::vector<Neighbor>& top = *out;
  // Distance of the k-th best candidate held, +inf until k are held: a row
  // farther than it cannot enter, so one well-predicted compare skips it.
  double kth = kInf;
  size_t visited = 0, scanned = 0;
  constexpr size_t kChunk = kernels::kMaskedScanChunk;
  double acc[kChunk], cnt[kChunk], dist[kChunk];
  // Finishes the distances of one tile's `len` rows from acc/cnt and offers
  // them to the top k in packed order; ids[i] is the row id of tile row i.
  auto offer = [&](const size_t* ids, size_t len) {
    kernels::MaskedDistanceFinish(acc, cnt, len, dist);
    for (size_t i = 0; i < len; ++i) {
      if (dist[i] > kth || std::isinf(dist[i]) || ids[i] == exclude) continue;
      const Neighbor cand{ids[i], dist[i]};
      if (top.size() == opts.k) {
        if (!NeighborLess(cand, top.back())) continue;
        top.pop_back();
      }
      top.insert(std::upper_bound(top.begin(), top.end(), cand, NeighborLess),
                 cand);
      if (top.size() == opts.k) kth = top.back().distance;
    }
  };
  auto count_scanned = [&](const size_t* ids, size_t count) {
    scanned += count;
    if (exclude != kNoExclude) scanned -= std::count(ids, ids + count, exclude);
  };
  // One dense tile of `len` rows at element `at` of the packed block: the
  // kernel accumulates the observed coordinates with the rows in SIMD lanes.
  auto scan_dense = [&](const size_t* ids, size_t at, size_t len) {
    std::fill_n(acc, len, 0.0);
    std::fill_n(cnt, len, 0.0);
    for (const size_t j : observed) {
      kernels::MaskedDistanceAccumulate(query[j], &packed_cols_[at + j * len],
                                        &packed_weights_[at + j * len], len,
                                        acc, cnt);
    }
    offer(ids, len);
  };
  auto scan_leaf = [&](const Node& node) {
    const size_t* ids = row_ids_.data() + node.begin;
    count_scanned(ids, node.end - node.begin);
    for (size_t s = node.begin; s < node.end; s += kChunk) {
      scan_dense(ids + (s - node.begin), s * d, std::min(kChunk, node.end - s));
    }
  };
  // The side list, tile by tile; a list tile scatters each observed
  // coordinate's entries into the rows that observe it.
  auto scan_side = [&] {
    const size_t* ids = side_rows_.data();
    count_scanned(ids, side_rows_.size());
    for (const SideTile& tile : side_tiles_) {
      if (tile.lists) {
        std::fill_n(acc, tile.len, 0.0);
        std::fill_n(cnt, tile.len, 0.0);
        const size_t* starts = list_starts_.data() + tile.at;
        for (const size_t j : observed) {
          kernels::MaskedDistanceScatter(
              query[j], list_pos_.data() + starts[j],
              list_vals_.data() + starts[j], starts[j + 1] - starts[j], acc,
              cnt);
        }
        offer(ids, tile.len);
      } else {
        scan_dense(ids, tile.at, tile.len);
      }
      ids += tile.len;
    }
  };

  if (observed.size() <= sparse_obs_threshold_) {
    // A sparse query's neighbors are ranked by one or two coordinates — they
    // scatter across the tree, so descend-and-scan cannot find them. Answer
    // exactly instead by scanning every packed row; (distance, row) is a
    // strict total order, so the top k do not depend on the scan order.
    sparse_queries->Add(1);
    for (const Node& node : nodes_) {
      if (node.children.empty()) scan_leaf(node);
    }
    scan_side();
  } else {
    // Best-bin-first: a min-heap over (centroid distance, node id) decides
    // which subtree to open next; ties open the lower node id.
    using HeapEntry = std::pair<double, size_t>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        frontier;
    if (!nodes_.empty()) frontier.push({0.0, 0});
    while (!frontier.empty()) {
      if (opts.max_leaf_visits > 0 && visited >= opts.max_leaf_visits) break;
      const size_t ni = frontier.top().second;
      frontier.pop();
      const Node& node = nodes_[ni];
      if (node.children.empty()) {
        ++visited;
        scan_leaf(node);
      } else {
        for (const size_t child : node.children) {
          frontier.push({kernels::MaskedRowToDenseDistance(
                             query, query_mask, centroids_.row_data(child), d),
                         child});
        }
      }
    }
    scan_side();
  }
  leaf_visits->Add(visited);
  rows_scanned->Add(scanned);
}

std::vector<Neighbor> AnnIndex::Search(const double* query,
                                       const double* query_mask,
                                       const SearchOptions& opts,
                                       size_t exclude) const {
  std::vector<Neighbor> out;
  SearchInto(query, query_mask, opts, exclude, &out);
  return out;
}

std::vector<std::vector<Neighbor>> AnnIndex::SearchBatch(
    const Matrix& queries, const Matrix& query_mask,
    const SearchOptions& opts) const {
  SCIS_TRACE_SPAN("index.search");
  SCIS_CHECK(queries.SameShape(query_mask));
  SCIS_CHECK_EQ(queries.cols(), values_.cols());
  std::vector<std::vector<Neighbor>> results(queries.rows());
  const size_t grain = runtime::GrainForWork(queries.rows(), 512);
  runtime::ParallelFor(0, queries.rows(), grain, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      SearchInto(queries.row_data(i), query_mask.row_data(i), opts, kNoExclude,
                 &results[i]);
    }
  });
  return results;
}

std::vector<std::vector<Neighbor>> AnnIndex::SelfNeighbors(
    const SearchOptions& opts) const {
  SCIS_TRACE_SPAN("index.search");
  std::vector<std::vector<Neighbor>> results(num_rows());
  const size_t grain = runtime::GrainForWork(num_rows(), 512);
  runtime::ParallelFor(0, num_rows(), grain, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      SearchInto(values_.row_data(i), mask_.row_data(i), opts, i, &results[i]);
    }
  });
  return results;
}

bool AnnIndex::operator==(const AnnIndex& other) const {
  auto node_eq = [](const Node& a, const Node& b) {
    return a.children == b.children && a.begin == b.begin && a.end == b.end;
  };
  return opts_ == other.opts_ &&
         sparse_obs_threshold_ == other.sparse_obs_threshold_ &&
         values_ == other.values_ && mask_ == other.mask_ &&
         col_means_ == other.col_means_ && row_ids_ == other.row_ids_ &&
         side_rows_ == other.side_rows_ && centroids_ == other.centroids_ &&
         nodes_.size() == other.nodes_.size() &&
         std::equal(nodes_.begin(), nodes_.end(), other.nodes_.begin(),
                    node_eq);
}

namespace {

void WriteMatrixRows(std::ostream& out, const Matrix& m, bool as_int) {
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (j) out << ' ';
      if (as_int) {
        out << static_cast<int>(m(i, j));
      } else {
        out << m(i, j);
      }
    }
    out << "\n";
  }
}

Status ReadMatrixRows(std::ifstream& in, Matrix* m, const std::string& path) {
  for (size_t k = 0; k < m->size(); ++k) in >> (*m)[k];
  if (!in) return Status::IoError("truncated matrix in " + path);
  return Status::OK();
}

}  // namespace

Status AnnIndex::Save(const std::string& path) const {
  std::ostringstream out;
  const size_t n = values_.rows(), d = values_.cols();
  out << "scis-annindex v1\n";
  out << "dims " << n << " " << d << "\n";
  out << "options " << opts_.branching << " " << opts_.max_leaf_rows << " "
      << opts_.kmeans_iters << " " << opts_.seed << " " << opts_.sparse_obs_max
      << "\n";
  out << std::setprecision(17);
  out << "colmeans\n";
  for (size_t j = 0; j < d; ++j) {
    if (j) out << ' ';
    out << col_means_[j];
  }
  out << "\nrowids " << row_ids_.size() << "\n";
  for (size_t i = 0; i < row_ids_.size(); ++i) {
    if (i) out << ' ';
    out << row_ids_[i];
  }
  if (!row_ids_.empty()) out << "\n";
  out << "siderows " << side_rows_.size() << "\n";
  for (size_t i = 0; i < side_rows_.size(); ++i) {
    if (i) out << ' ';
    out << side_rows_[i];
  }
  if (!side_rows_.empty()) out << "\n";
  out << "nodes " << nodes_.size() << "\n";
  for (const Node& node : nodes_) {
    out << node.begin << " " << node.end << " " << node.children.size();
    for (const size_t c : node.children) out << " " << c;
    out << "\n";
  }
  out << "centroids\n";
  WriteMatrixRows(out, centroids_, false);
  out << "values\n";
  WriteMatrixRows(out, values_, false);
  out << "mask\n";
  WriteMatrixRows(out, mask_, true);
  const std::string bytes = std::move(out).str();
  return PublishFile(path, {bytes});
}

Result<AnnIndex> AnnIndex::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string magic, version, keyword;
  in >> magic >> version;
  if (!in || magic != "scis-annindex" || version != "v1") {
    return Status::InvalidArgument("not a scis-annindex v1 file: " + path);
  }
  auto expect = [&](const char* kw) {
    in >> keyword;
    return in && keyword == kw;
  };
  AnnIndex idx;
  size_t n = 0, d = 0;
  if (!expect("dims")) return Status::InvalidArgument("missing dims: " + path);
  in >> n >> d;
  if (!expect("options")) {
    return Status::InvalidArgument("missing options: " + path);
  }
  in >> idx.opts_.branching >> idx.opts_.max_leaf_rows >>
      idx.opts_.kmeans_iters >> idx.opts_.seed >> idx.opts_.sparse_obs_max;
  if (!in) return Status::IoError("truncated header in " + path);
  idx.sparse_obs_threshold_ =
      idx.opts_.sparse_obs_max == IndexOptions::kAutoSparse
          ? d / 2
          : idx.opts_.sparse_obs_max;
  if (!expect("colmeans")) {
    return Status::InvalidArgument("missing colmeans: " + path);
  }
  idx.col_means_.resize(d);
  for (size_t j = 0; j < d; ++j) in >> idx.col_means_[j];
  if (!expect("rowids")) {
    return Status::InvalidArgument("missing rowids: " + path);
  }
  size_t tree_rows = 0;
  in >> tree_rows;
  if (!in || tree_rows > n) {
    return Status::InvalidArgument("bad rowids count in " + path);
  }
  // rowids and siderows must together be a permutation of 0..n-1: the
  // packed block and every Neighbor::row index the n stored rows by them.
  std::vector<bool> seen(n, false);
  auto take_id = [&](size_t* id) {
    in >> *id;
    if (!in || *id >= n || seen[*id]) return false;
    seen[*id] = true;
    return true;
  };
  idx.row_ids_.resize(tree_rows);
  for (size_t& id : idx.row_ids_) {
    if (!take_id(&id)) {
      return Status::InvalidArgument("bad, repeated or missing row id in " +
                                     path);
    }
  }
  if (!expect("siderows")) {
    return Status::InvalidArgument("missing siderows: " + path);
  }
  size_t side_count = 0;
  in >> side_count;
  if (!in || tree_rows + side_count != n) {
    return Status::InvalidArgument("rowids + siderows != rows in " + path);
  }
  idx.side_rows_.resize(side_count);
  for (size_t& id : idx.side_rows_) {
    if (!take_id(&id)) {
      return Status::InvalidArgument(
          "bad, repeated or missing side row id in " + path);
    }
  }
  if (!expect("nodes")) {
    return Status::InvalidArgument("missing nodes: " + path);
  }
  size_t node_count = 0;
  in >> node_count;
  if (!in || (tree_rows > 0 && node_count == 0)) {
    return Status::InvalidArgument("bad node count in " + path);
  }
  idx.nodes_.resize(node_count);
  std::vector<bool> has_parent(node_count, false);
  for (size_t ni = 0; ni < node_count; ++ni) {
    Node& node = idx.nodes_[ni];
    size_t nc = 0;
    in >> node.begin >> node.end >> nc;
    if (!in || node.begin > node.end || node.end > tree_rows ||
        nc > node_count) {
      return Status::InvalidArgument("bad node record in " + path);
    }
    node.children.resize(nc);
    for (size_t c = 0; c < nc; ++c) {
      size_t& child = node.children[c];
      in >> child;
      // Nodes are stored in pre-order, so a child always follows its
      // parent (no cycles), and a node has at most one parent (no shared
      // subtrees, which a search would expand once per path): a tree.
      if (!in || child <= ni || child >= node_count || has_parent[child]) {
        return Status::InvalidArgument("bad child id in " + path);
      }
      has_parent[child] = true;
    }
  }
  // The leaves, in node order, must cut the tree rows into consecutive
  // runs: the packed block is tiled leaf by leaf, and a search that met a
  // row in two leaves (or in none) would return it twice (or never).
  size_t leaf_end = 0;
  for (const Node& node : idx.nodes_) {
    if (!node.children.empty()) continue;
    if (node.begin != leaf_end) {
      return Status::InvalidArgument("leaves do not partition rowids in " +
                                     path);
    }
    leaf_end = node.end;
  }
  if (leaf_end != tree_rows) {
    return Status::InvalidArgument("leaves do not partition rowids in " +
                                   path);
  }
  if (!expect("centroids")) {
    return Status::InvalidArgument("missing centroids: " + path);
  }
  idx.centroids_ = Matrix(node_count, d);
  SCIS_RETURN_NOT_OK(ReadMatrixRows(in, &idx.centroids_, path));
  if (!expect("values")) {
    return Status::InvalidArgument("missing values: " + path);
  }
  idx.values_ = Matrix(n, d);
  SCIS_RETURN_NOT_OK(ReadMatrixRows(in, &idx.values_, path));
  if (!expect("mask")) return Status::InvalidArgument("missing mask: " + path);
  idx.mask_ = Matrix(n, d);
  SCIS_RETURN_NOT_OK(ReadMatrixRows(in, &idx.mask_, path));
  for (size_t k = 0; k < idx.mask_.size(); ++k) {
    if (idx.mask_[k] != 0.0 && idx.mask_[k] != 1.0) {
      return Status::InvalidArgument("mask is not {0,1}-valued: " + path);
    }
  }
  idx.PackRows();
  return idx;
}

AnnIndex BuildKnnIndex(const Matrix& values, const Matrix& mask) {
  IndexOptions opts;
  if (values.rows() <= kExactKnnMaxRows) opts.max_leaf_rows = values.rows();
  return AnnIndex::Build(values, mask, opts);
}

std::vector<Neighbor> BruteForceSearch(const Matrix& values,
                                       const Matrix& mask, const double* query,
                                       const double* query_mask, size_t k,
                                       size_t exclude) {
  const size_t n = values.rows(), d = values.cols();
  std::vector<Neighbor> all;
  all.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (r == exclude) continue;
    const double dist = kernels::MaskedRowDistance(
        query, query_mask, values.row_data(r), mask.row_data(r), d);
    if (std::isinf(dist)) continue;
    all.push_back({r, dist});
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(), NeighborLess);
  all.resize(keep);
  return all;
}

}  // namespace scis::index
