// Mask-aware approximate-nearest-neighbor index: a hierarchical k-means
// vocabulary tree (Nistér & Stewénius style) over incomplete rows.
//
// The metric is the library-wide mask-aware row distance (squared Euclidean
// over co-observed coordinates, rescaled by the co-observed count; see
// kernels/masked_distance.h), which kNN imputation and GINN's similarity
// graph search through BuildKnnIndex: an exact one-leaf scan for small
// reference sets, an O(n·log n) tree above.
// Internal nodes hold dense k-means centroids (missing coordinates of a
// member row fall back to the observed column mean, the same projection
// Muzellec et al.'s mask-projected sample geometry uses); queries descend
// best-bin-first with a bounded leaf budget.
//
// Determinism contract: Build is a pure function of (values, mask, options)
// — k-means++ seeding draws from an Rng derived per node from the option
// seed and the node's position, Lloyd assignment/update run on the runtime
// pool via ParallelFor/ParallelReduce (fixed chunk grids, ordered combines),
// and every tie (cluster assignment, heap order, top-k) breaks on the lower
// index. Results are therefore bit-identical at any thread count; the Index
// test suites and bench/index_build_query assert this.
//
// Sparse rows: dividing by the co-observed count lets a row that observes
// only a coordinate or two reach a tiny distance against almost any query —
// a "lucky match" on one shared coordinate. Such rows dominate true top-k
// sets out of all proportion to their population, yet their densified
// representation is mostly column means, so no partition of the tree can
// localize them. The index therefore keeps rows observing at most
// IndexOptions::sparse_obs_max coordinates (auto: half the columns) in a
// side list that every search scans exhaustively, and answers queries that
// sparse by a full scan — both deterministic, both exact for the rows they
// cover. This is what lifts recall on high-missingness data from ~0.65 to
// >0.95. On data as sparse as the Search shape (81% missing) nearly every
// row is a side row and nearly every query is sparse, so each search is an
// exact scan of the whole index.
//
// Scans: each leaf, and the side list, is cut into tiles of at most 256
// rows. Leaf tiles are stored coordinate-major in one packed block: for
// each coordinate, the values of the tile's rows in one contiguous run
// (+0.0 where a row misses it) beside a run of their {0,1} weights. A leaf
// is thus one contiguous stretch of memory, which keeps wide, dense leaf
// scans on large, memory-resident indexes streaming (EXPERIMENTS.md), at
// 16·d bytes per row. A side tile is stored the same way when it is more
// than a third full; a sparser one keeps only its observed cells, as
// one list per coordinate of (1-byte tile position, value) pairs, at 9
// bytes per observed cell. Leaf scans, the side-list scan and the
// sparse-query full scan walk their rows tile by tile; per tile they take
// only the query's observed coordinates, in ascending order — about 12 of
// 64 on the Search shape — with the rows in SIMD lanes for a dense tile,
// or scattered into the rows that observe each coordinate for a list tile
// (kernels/masked_distance.h). A side row of the Search shape observes
// about 19% of the coordinates, so a list tile skips about 81% of a dense
// tile's row-coordinate terms, each an exact +0.0. Every distance is the
// same double the array form of the metric returns, so results do not
// depend on which form or scan order computed them.
//
// Exactness: with SearchOptions::max_leaf_visits == 0 every leaf is scanned
// and the result equals the brute-force oracle exactly (the mask-aware
// metric admits no centroid-distance bound, so there is no pruning to get
// wrong); a tree that degenerates to a single leaf is exact for any budget.
#ifndef SCIS_INDEX_ANN_INDEX_H_
#define SCIS_INDEX_ANN_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace scis::index {

struct IndexOptions {
  // Auto sentinel for sparse_obs_max: resolve to cols / 2 at build time.
  static constexpr size_t kAutoSparse = static_cast<size_t>(-1);

  size_t branching = 8;       // k-means fan-out per internal node
  size_t max_leaf_rows = 64;  // nodes at or below this size become leaves
  int kmeans_iters = 8;       // Lloyd passes after k-means++ seeding
  uint64_t seed = 0x51C5;     // drives the deterministic k-means++ draws
  // Rows observing at most this many coordinates go to the exhaustively
  // scanned side list instead of the tree, and queries that sparse fall
  // back to a full scan (see the header comment). 0 disables the side
  // list; kAutoSparse resolves to cols / 2.
  size_t sparse_obs_max = kAutoSparse;

  bool operator==(const IndexOptions&) const = default;
};

struct SearchOptions {
  size_t k = 10;
  // Best-bin-first budget: leaves scanned before the search stops.
  // 0 = unbounded (every leaf is visited; the result is exact).
  size_t max_leaf_visits = 16;
};

struct Neighbor {
  size_t row = 0;         // row id into the indexed matrix
  double distance = 0.0;  // mask-aware distance (never +inf)

  bool operator==(const Neighbor&) const = default;
};

class AnnIndex {
 public:
  static constexpr size_t kNoExclude = static_cast<size_t>(-1);

  AnnIndex() = default;

  // Builds the tree over the rows of `values` with their {0,1} `mask`.
  // Deterministic in (values, mask, opts); parallel on the runtime pool.
  static AnnIndex Build(const Matrix& values, const Matrix& mask,
                        const IndexOptions& opts = {});

  bool empty() const { return values_.rows() == 0; }
  size_t num_rows() const { return values_.rows(); }
  size_t num_cols() const { return values_.cols(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  size_t depth() const;  // 1 for a single-leaf tree
  // Rows held out of the tree and scanned exhaustively by every search.
  size_t num_side_rows() const { return side_rows_.size(); }
  // The resolved sparse-row threshold (options().sparse_obs_max, with
  // kAutoSparse replaced by cols / 2).
  size_t sparse_obs_threshold() const { return sparse_obs_threshold_; }
  const IndexOptions& options() const { return opts_; }
  // The indexed rows; Neighbor::row indexes into these.
  const Matrix& values() const { return values_; }
  const Matrix& mask() const { return mask_; }

  // k nearest indexed rows to the query row (d values + {0,1} mask),
  // ascending by (distance, row). Rows at +inf (no co-observed coordinate)
  // are never returned, so fewer than k neighbors — or none, when the query
  // has an empty mask — is possible. A query observing at most
  // sparse_obs_threshold() coordinates is answered by an exact full scan
  // (its neighbors scatter; the tree cannot localize them). `exclude` skips
  // one row id (self-queries during graph construction). Records no trace
  // span: one span per query would fill a thread's trace buffer under
  // sustained serving, so a caller that loops over queries records one
  // `index.search` span around its loop, as SearchBatch and SelfNeighbors do.
  std::vector<Neighbor> Search(const double* query, const double* query_mask,
                               const SearchOptions& opts,
                               size_t exclude = kNoExclude) const;

  // Search for every row of `queries`, parallel over the runtime pool
  // (deterministic: per-query results are independent).
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, const Matrix& query_mask,
      const SearchOptions& opts) const;

  // Neighbors of every indexed row within the index itself, self excluded —
  // the kNN-graph construction pattern.
  std::vector<std::vector<Neighbor>> SelfNeighbors(
      const SearchOptions& opts) const;

  // On-disk format (text "scis-annindex v1", full precision): round-trips
  // bit-exactly. Save publishes atomically (common/file_publish.h): on
  // error an existing file at `path` is untouched. Load rejects a file
  // whose row ids are not a permutation of the stored rows, or whose nodes
  // are not a tree in pre-order, with InvalidArgument.
  Status Save(const std::string& path) const;
  static Result<AnnIndex> Load(const std::string& path);

  // Exact structural equality (serialize round-trip / bit-identity tests).
  bool operator==(const AnnIndex& other) const;

 private:
  struct Node {
    std::vector<size_t> children;  // indices into nodes_; empty marks a leaf
    size_t begin = 0, end = 0;     // this node's slice of row_ids_
  };

  struct Builder;

  void SearchInto(const double* query, const double* query_mask,
                  const SearchOptions& opts, size_t exclude,
                  std::vector<Neighbor>* out) const;

  IndexOptions opts_;
  size_t sparse_obs_threshold_ = 0;  // resolved from opts_ at build/load
  Matrix values_, mask_;
  std::vector<double> col_means_;  // observed column means (centroid fill)
  std::vector<Node> nodes_;        // nodes_[0] is the root
  Matrix centroids_;               // one row per node (root's row is unused)
  // Leaf-contiguous permutation of the tree-resident row ids; together with
  // side_rows_ this partitions 0..n-1.
  std::vector<size_t> row_ids_;
  std::vector<size_t> side_rows_;  // sparse rows, scanned on every search
  // The scan storage, derived from the members above — rebuilt on Load,
  // not serialized. Each leaf, and the side list, is cut into tiles of at
  // most kernels::kMaskedScanChunk rows.
  //
  // Dense tiles: the packed block holds every leaf tile, in leaf order, then
  // the dense side tiles, in side_rows_ order. A dense tile of L rows starts
  // at element `at`; coordinate j of its row i sits at at + j * L + i:
  // packed_cols_ holds the value (+0.0 where missing), packed_weights_ the
  // {0,1} mask. Leaf row p (row row_ids_[p]) is in the tile starting at
  // element s * d, s the tile's first leaf row.
  std::vector<double> packed_cols_;
  std::vector<double> packed_weights_;
  // The side list's tiles, in side_rows_ order. A tile whose fill (observed
  // cells over L · d) is at most kSideListMaxFill (1/3, ann_index.cc) is
  // stored as coordinate lists: the rows that observe coordinate j are
  // list_pos_[e] (their position in the tile) with values list_vals_[e],
  // for e in [list_starts_[at + j], list_starts_[at + j + 1]). Other side
  // tiles are dense, at element `at` of the packed block.
  struct SideTile {
    size_t len = 0;
    bool lists = false;
    size_t at = 0;
  };
  std::vector<SideTile> side_tiles_;
  std::vector<size_t> list_starts_;
  std::vector<uint8_t> list_pos_;
  std::vector<double> list_vals_;

  void PackRows();  // fills the scan storage above
};


// Row counts at or below this are indexed as a single leaf by BuildKnnIndex.
inline constexpr size_t kExactKnnMaxRows = 2048;

// The index every kNN consumer (KnnImputer, the GINN graph) searches: at or
// below kExactKnnMaxRows rows, one leaf, which is an exact scan for any
// search budget; above, the default tree.
AnnIndex BuildKnnIndex(const Matrix& values, const Matrix& mask);

// Brute-force exact kNN over the same metric and tie-break order as
// AnnIndex::Search, one array-form distance per row: the reference the
// index differential tests and bench/index_build_query compare against
// (the independent oracle lives in testkit/oracles.h).
std::vector<Neighbor> BruteForceSearch(const Matrix& values,
                                       const Matrix& mask, const double* query,
                                       const double* query_mask, size_t k,
                                       size_t exclude = AnnIndex::kNoExclude);

}  // namespace scis::index

#endif  // SCIS_INDEX_ANN_INDEX_H_
