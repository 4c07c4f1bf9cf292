// AnnIndex: exactness against the BruteForceSearch reference and the
// independent testkit oracle, recall under a bounded leaf budget, on-disk
// round-trip, thread-count bit-identity, and the GINN kNN graph built on
// BuildKnnIndex.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "index/ann_index.h"
#include "index/knn_graph.h"
#include "kernels/masked_distance.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "tensor/rng.h"
#include "testkit/generators.h"
#include "testkit/golden.h"
#include "testkit/gtest_glue.h"
#include "testkit/oracles.h"

namespace scis {
namespace {

using index::AnnIndex;
using index::IndexOptions;
using index::Neighbor;
using index::SearchOptions;

class ThreadsGuard {
 public:
  ThreadsGuard() : saved_(runtime::NumThreads()) {}
  ~ThreadsGuard() { runtime::SetNumThreads(saved_); }

 private:
  int saved_;
};

// Random rows in [0,1]^d with an MCAR mask from the testkit generator.
struct TestData {
  Matrix values, mask;
};
TestData MakeData(uint64_t seed, size_t n, size_t d, double missing) {
  Rng rng(seed);
  TestData data;
  data.values = rng.UniformMatrix(n, d, 0.0, 1.0);
  data.mask = testkit::GenMask(rng, data.values,
                               testkit::MaskMechanism::kMcar, missing);
  return data;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].row != b[i].row || a[i].distance != b[i].distance) return false;
  }
  return true;
}

TEST(IndexTest, UnboundedSearchMatchesBruteForceAndOracle) {
  CHECK_PROPERTY("index_unbounded_exact", [](uint64_t seed) {
    Rng rng(seed);
    const size_t n = 20 + rng.UniformIndex(400);
    const size_t d = 1 + rng.UniformIndex(6);
    TestData data = MakeData(seed * 7919 + 1, n, d, 0.3);
    IndexOptions iopts;
    iopts.branching = 2 + rng.UniformIndex(6);
    iopts.max_leaf_rows = 4 + rng.UniformIndex(32);
    const AnnIndex idx = AnnIndex::Build(data.values, data.mask, iopts);
    SearchOptions sopts;
    sopts.k = 1 + rng.UniformIndex(12);
    sopts.max_leaf_visits = 0;  // visit every leaf: exact by construction
    for (size_t q = 0; q < 8; ++q) {
      const size_t i = rng.UniformIndex(n);
      const std::vector<Neighbor> ann =
          idx.Search(data.values.row_data(i), data.mask.row_data(i), sopts);
      const std::vector<Neighbor> brute = index::BruteForceSearch(
          data.values, data.mask, data.values.row_data(i),
          data.mask.row_data(i), sopts.k);
      PROP_CHECK_MSG(SameNeighbors(ann, brute), "ANN(unbounded) != brute force at query " << i);
      const auto oracle = testkit::NaiveMaskedKnn(
          data.values, data.mask, data.values.row_data(i),
          data.mask.row_data(i), sopts.k);
      PROP_CHECK_MSG(ann.size() == oracle.size(), "oracle count mismatch");
      for (size_t t = 0; t < ann.size(); ++t) {
        PROP_CHECK_MSG(ann[t].row == oracle[t].first &&
                   std::abs(ann[t].distance - oracle[t].second) < 1e-12, "oracle disagrees at rank " << t);
      }
    }
    return testkit::PropertyStatus::Pass();
  });
}

TEST(IndexTest, SingleLeafTreeIsExactForAnyBudget) {
  CHECK_PROPERTY("index_single_leaf_exact", [](uint64_t seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.UniformIndex(60);
    TestData data = MakeData(seed + 17, n, 4, 0.25);
    IndexOptions iopts;
    iopts.max_leaf_rows = 64;  // n <= 64: the tree degenerates to one leaf
    const AnnIndex idx = AnnIndex::Build(data.values, data.mask, iopts);
    PROP_CHECK_MSG(idx.num_nodes() == 1 && idx.depth() == 1, "expected a single-leaf tree, got " << idx.num_nodes() << " nodes");
    SearchOptions sopts;
    sopts.k = 5;
    sopts.max_leaf_visits = 1;  // tightest budget still scans everything
    for (size_t i = 0; i < n; ++i) {
      const std::vector<Neighbor> ann =
          idx.Search(data.values.row_data(i), data.mask.row_data(i), sopts, i);
      const std::vector<Neighbor> brute = index::BruteForceSearch(
          data.values, data.mask, data.values.row_data(i),
          data.mask.row_data(i), sopts.k, i);
      PROP_CHECK_MSG(SameNeighbors(ann, brute), "degenerate tree not exact");
    }
    return testkit::PropertyStatus::Pass();
  });
}

// Recall@10 of the budgeted search against exact brute force, averaged over
// sampled queries — the ISSUE acceptance bar: >= 0.95 at n >= 50k.
double RecallAtK(const AnnIndex& idx, const Matrix& values, const Matrix& mask,
                 const SearchOptions& sopts, size_t num_queries,
                 uint64_t seed) {
  Rng rng(seed);
  double hit = 0.0, want = 0.0;
  for (size_t q = 0; q < num_queries; ++q) {
    const size_t i = rng.UniformIndex(values.rows());
    const std::vector<Neighbor> exact =
        index::BruteForceSearch(values, mask, values.row_data(i),
                                mask.row_data(i), sopts.k, i);
    if (exact.empty()) continue;
    const std::vector<Neighbor> ann =
        idx.Search(values.row_data(i), mask.row_data(i), sopts, i);
    std::set<size_t> got;
    for (const Neighbor& nb : ann) got.insert(nb.row);
    for (const Neighbor& nb : exact) hit += got.count(nb.row) ? 1.0 : 0.0;
    want += static_cast<double>(exact.size());
  }
  return want > 0.0 ? hit / want : 1.0;
}

// The scan across row widths (1 to 130 coordinates) and missing rates:
// with every leaf visited — max_leaf_visits = 0, or the default budget on
// a tree with no more leaves than the budget — Search equals
// BruteForceSearch and the independent oracle exactly, and SearchBatch is
// bit-identical at 1/2/4 threads.
TEST(IndexTest, SearchMatchesBruteForceAcrossWordWidths) {
  ThreadsGuard guard;
  const SearchOptions defaults;
  for (const size_t d : {1, 9, 16, 17, 63, 64, 65, 130}) {
    for (const double missing : {0.0, 0.5, 0.81, 0.95}) {
      TestData data = MakeData(31 + d, 400, d, missing);
      TestData queries = MakeData(37 + d, 24, d, missing);
      IndexOptions iopts;
      iopts.max_leaf_rows = 128;  // at most ~8 leaves over 400 rows
      const AnnIndex idx = AnnIndex::Build(data.values, data.mask, iopts);
      ASSERT_LE(idx.num_leaves(), defaults.max_leaf_visits);
      for (const size_t budget : {size_t{0}, defaults.max_leaf_visits}) {
        SearchOptions sopts;
        sopts.max_leaf_visits = budget;
        for (size_t q = 0; q < queries.values.rows(); ++q) {
          const double* qv = queries.values.row_data(q);
          const double* qm = queries.mask.row_data(q);
          const std::vector<Neighbor> ann = idx.Search(qv, qm, sopts);
          EXPECT_EQ(ann, index::BruteForceSearch(data.values, data.mask, qv,
                                                 qm, sopts.k))
              << "d=" << d << " missing=" << missing << " query " << q;
          const auto oracle = testkit::NaiveMaskedKnn(data.values, data.mask,
                                                      qv, qm, sopts.k);
          ASSERT_EQ(ann.size(), oracle.size());
          for (size_t t = 0; t < ann.size(); ++t) {
            EXPECT_EQ(ann[t].row, oracle[t].first);
            EXPECT_EQ(ann[t].distance, oracle[t].second);
          }
        }
        runtime::SetNumThreads(1);
        const auto base = idx.SearchBatch(queries.values, queries.mask, sopts);
        for (int threads : {2, 4}) {
          runtime::SetNumThreads(threads);
          EXPECT_EQ(idx.SearchBatch(queries.values, queries.mask, sopts), base)
              << "d=" << d << " missing=" << missing << " at " << threads
              << " threads";
        }
      }
    }
  }
}

// The chunked scan at its chunk edges: indexes of chunk - 1, chunk and
// chunk + 1 rows, leaves smaller and larger than a chunk (the latter cut
// into several tiles), and queries that
// take the sparse full scan or the tree (budget 0, so every leaf is
// scanned). Values on a 0.25 grid make many distances tie, so the top k
// must break ties on the row id however the scan orders rows. Search and
// SelfNeighbors (which passes `exclude`) equal BruteForceSearch exactly,
// and SearchBatch and SelfNeighbors are bit-identical at 1/2/4 threads.
TEST(IndexTest, ChunkedScanMatchesBruteForceAtChunkEdges) {
  ThreadsGuard guard;
  constexpr size_t kChunk = kernels::kMaskedScanChunk;
  SearchOptions sopts;
  sopts.max_leaf_visits = 0;
  for (const size_t n : {kChunk - 1, kChunk, kChunk + 1}) {
    for (const size_t leaf_rows : {kChunk / 4, 2 * kChunk}) {
      for (const size_t d : {6, 64}) {
        for (const double missing : {0.0, 0.3, 0.81}) {
          TestData data = MakeData(n + 7 * d, n, d, missing);
          TestData queries = MakeData(n + 11 * d, 24, d, missing);
          for (size_t k = 0; k < data.values.size(); ++k) {
            data.values[k] = std::round(4.0 * data.values[k]) / 4.0;
          }
          IndexOptions iopts;
          iopts.max_leaf_rows = leaf_rows;
          const AnnIndex idx = AnnIndex::Build(data.values, data.mask, iopts);
          if (missing == 0.0) {
            // Every row and query is dense: all of them take the tree.
            ASSERT_EQ(idx.num_side_rows(), 0u);
            ASSERT_EQ(idx.num_leaves() > 1, leaf_rows < n);
          }
          for (size_t q = 0; q < queries.values.rows(); ++q) {
            const double* qv = queries.values.row_data(q);
            const double* qm = queries.mask.row_data(q);
            EXPECT_EQ(idx.Search(qv, qm, sopts),
                      index::BruteForceSearch(data.values, data.mask, qv, qm,
                                              sopts.k))
                << "n=" << n << " leaf_rows=" << leaf_rows << " d=" << d
                << " missing=" << missing << " query " << q;
          }
          runtime::SetNumThreads(1);
          const auto self = idx.SelfNeighbors(sopts);
          const auto batch =
              idx.SearchBatch(queries.values, queries.mask, sopts);
          for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(self[i], index::BruteForceSearch(
                                   data.values, data.mask,
                                   data.values.row_data(i),
                                   data.mask.row_data(i), sopts.k, i))
                << "n=" << n << " leaf_rows=" << leaf_rows << " d=" << d
                << " missing=" << missing << " self row " << i;
          }
          for (int threads : {2, 4}) {
            runtime::SetNumThreads(threads);
            EXPECT_EQ(idx.SelfNeighbors(sopts), self) << threads << " threads";
            EXPECT_EQ(idx.SearchBatch(queries.values, queries.mask, sopts),
                      batch)
                << threads << " threads";
          }
        }
      }
    }
  }
}

// The side list, stored as coordinate lists or as dense tiles by fill, is
// bit-identical to BruteForceSearch. Each index holds `side` sparse rows
// (observing at most d/2 coordinates: a random draw at `missing`, cut to
// d/2) and 40 fully observed tree rows. Side lists of chunk - 1, chunk and
// chunk + 1 rows put a 1-row tile at the edge; missing 0.3 and 0.5 give
// side tiles denser than kSideListMaxFill, 0.7 and above sparser ones, and
// the test checks that both forms were built. Some rows and queries observe
// nothing. Values are continuous, so summing a row's terms in any other
// order than ascending coordinate changes low bits; rows and distances are
// compared with memcmp, for Search, SelfNeighbors (which passes `exclude`)
// and SearchBatch at 1, 2 and 4 threads.
TEST(IndexTest, SideListTilesMatchBruteForceBitForBit) {
  ThreadsGuard guard;
  constexpr size_t kChunk = kernels::kMaskedScanChunk;
  constexpr size_t kTreeRows = 40;
  SearchOptions sopts;
  sopts.max_leaf_visits = 0;
  auto same_bytes = [](const std::vector<Neighbor>& a,
                       const std::vector<Neighbor>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(Neighbor)) == 0);
  };
  obs::Gauge* list_tiles =
      obs::Registry::Global().GetGauge("index.last_build_list_tiles");
  bool saw_lists = false, saw_dense = false;
  for (const size_t d : {1, 6, 9, 64, 65}) {
    for (const double missing : {0.3, 0.5, 0.7, 0.81, 0.95}) {
      for (const size_t side : {kChunk - 1, kChunk, kChunk + 1}) {
        const size_t n = side + kTreeRows;
        const uint64_t seed = 1000 * d + side + static_cast<uint64_t>(
                                                    100 * missing);
        TestData data = MakeData(seed, n, d, missing);
        TestData queries = MakeData(seed + 1, 24, d, missing);
        Rng rng(seed + 2);
        for (size_t i = 0; i < n; ++i) {
          double* m = data.mask.row_data(i);
          if (i < side && i % 37 != 5) {
            // Keep at most d/2 observed cells, from a random start.
            const size_t start = rng.UniformIndex(d);
            size_t kept = 0;
            for (size_t t = 0; t < d; ++t) {
              double& cell = m[(start + t) % d];
              if (cell == 1.0 && ++kept > d / 2) cell = 0.0;
            }
          } else {
            std::fill(m, m + d, i < side ? 0.0 : 1.0);  // empty, or dense
          }
        }
        std::fill_n(queries.mask.row_data(3), d, 0.0);
        const AnnIndex idx = AnnIndex::Build(data.values, data.mask);
        ASSERT_EQ(idx.num_side_rows(), side);
        const double tiles = list_tiles->value();
        saw_lists |= tiles > 0;
        saw_dense |= tiles < static_cast<double>((side + kChunk - 1) / kChunk);
        const std::string where = "d=" + std::to_string(d) +
                                  " missing=" + std::to_string(missing) +
                                  " side=" + std::to_string(side);
        runtime::SetNumThreads(1);
        for (size_t q = 0; q < queries.values.rows(); ++q) {
          const double* qv = queries.values.row_data(q);
          const double* qm = queries.mask.row_data(q);
          EXPECT_TRUE(same_bytes(
              idx.Search(qv, qm, sopts),
              index::BruteForceSearch(data.values, data.mask, qv, qm,
                                      sopts.k)))
              << where << " query " << q;
        }
        const auto self = idx.SelfNeighbors(sopts);
        const auto batch = idx.SearchBatch(queries.values, queries.mask, sopts);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(same_bytes(
              self[i], index::BruteForceSearch(data.values, data.mask,
                                               data.values.row_data(i),
                                               data.mask.row_data(i), sopts.k,
                                               i)))
              << where << " self row " << i;
        }
        for (int threads : {2, 4}) {
          runtime::SetNumThreads(threads);
          const auto self_t = idx.SelfNeighbors(sopts);
          const auto batch_t =
              idx.SearchBatch(queries.values, queries.mask, sopts);
          for (size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(same_bytes(self_t[i], self[i]))
                << where << " self row " << i << " at " << threads;
          }
          for (size_t q = 0; q < batch.size(); ++q) {
            EXPECT_TRUE(same_bytes(batch_t[q], batch[q]))
                << where << " query " << q << " at " << threads;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_lists);
  EXPECT_TRUE(saw_dense);
}

// At n=8192 the tree has ~500 leaves, so a 64-leaf budget already opens
// >10% of it; uniform MCAR data is the metric's worst case (see the
// sparse-row discussion in ann_index.h) and mid-size recall saturates near
// 0.93 — the 0.95 acceptance bar binds at n >= 50k, where leaf spans are
// denser relative to the neighbor pool.
TEST(IndexTest, RecallAtTenMidSize) {
  TestData data = MakeData(101, 8192, 6, 0.2);
  const AnnIndex idx = AnnIndex::Build(data.values, data.mask, {});
  SearchOptions sopts;
  sopts.k = 10;
  sopts.max_leaf_visits = 64;
  const double recall =
      RecallAtK(idx, data.values, data.mask, sopts, 64, 202);
  EXPECT_GE(recall, 0.90) << "recall@10 too low at n=8192";
}

TEST(IndexTest, RecallAtTenLargeN) {
  TestData data = MakeData(303, 50000, 6, 0.2);
  const AnnIndex idx = AnnIndex::Build(data.values, data.mask, {});
  SearchOptions sopts;
  sopts.k = 10;
  sopts.max_leaf_visits = 48;
  const double recall =
      RecallAtK(idx, data.values, data.mask, sopts, 48, 404);
  EXPECT_GE(recall, 0.95) << "recall@10 too low at n=50000";
}

TEST(IndexTest, SerializeRoundTripBitExact) {
  TestData data = MakeData(7, 600, 5, 0.35);
  const AnnIndex idx = AnnIndex::Build(data.values, data.mask, {});
  const std::string path = "/tmp/scis_annindex_test.txt";
  ASSERT_TRUE(idx.Save(path).ok());
  Result<AnnIndex> loaded = AnnIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(idx == *loaded);
  SearchOptions sopts;
  sopts.k = 8;
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(SameNeighbors(
        idx.Search(data.values.row_data(i), data.mask.row_data(i), sopts),
        loaded->Search(data.values.row_data(i), data.mask.row_data(i),
                       sopts)));
  }
  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The scis-annindex v1 bytes are pinned by a golden: Save must keep writing
// them, and the golden file itself — an index written by an earlier build —
// must load to the same index and answer searches identically.
TEST(IndexTest, SavedFileMatchesGoldenAndLoads) {
  TestData data = MakeData(23, 48, 5, 0.45);
  IndexOptions iopts;
  iopts.max_leaf_rows = 8;
  const AnnIndex idx = AnnIndex::Build(data.values, data.mask, iopts);
  ASSERT_GT(idx.num_side_rows(), 0u);
  ASSERT_GT(idx.num_leaves(), 1u);
  const std::string path = ::testing::TempDir() + "scis_annindex_golden.txt";
  ASSERT_TRUE(idx.Save(path).ok());
  EXPECT_MATCHES_GOLDEN("annindex_v1.txt", ReadFileBytes(path));
  std::remove(path.c_str());

  Result<AnnIndex> golden =
      AnnIndex::Load(testkit::GoldenDir() + "/annindex_v1.txt");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_TRUE(idx == *golden);
  SearchOptions sopts;
  sopts.k = 6;
  sopts.max_leaf_visits = 2;
  for (size_t i = 0; i < data.values.rows(); ++i) {
    EXPECT_TRUE(SameNeighbors(
        idx.Search(data.values.row_data(i), data.mask.row_data(i), sopts),
        golden->Search(data.values.row_data(i), data.mask.row_data(i),
                       sopts)));
  }
}

TEST(IndexTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/scis_annindex_bad.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("scis-params v2\nnot an index\n", f);
  std::fclose(f);
  EXPECT_FALSE(AnnIndex::Load(path).ok());
  EXPECT_FALSE(AnnIndex::Load("/tmp/scis_annindex_missing.txt").ok());
  std::remove(path.c_str());
}

// The leaves, in node order, must cut the tree rows into consecutive runs:
// the golden index with its second leaf widened to overlap the first, or
// narrowed to leave a row in no leaf, is refused.
TEST(IndexTest, LoadRejectsLeavesThatDoNotPartitionRows) {
  const std::string golden =
      ReadFileBytes(testkit::GoldenDir() + "/annindex_v1.txt");
  const std::string leaf = "\n7 11 0\n";
  ASSERT_NE(golden.find(leaf), std::string::npos);
  const std::string path = ::testing::TempDir() + "scis_annindex_leaves.txt";
  for (const char* bad : {"\n6 11 0\n", "\n8 11 0\n"}) {
    std::string text = golden;
    text.replace(text.find(leaf), leaf.size(), bad);
    std::ofstream(path, std::ios::binary) << text;
    const Result<AnnIndex> loaded = AnnIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  std::remove(path.c_str());
}

size_t TempSiblings(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp.") != std::string::npos) ++n;
  }
  return n;
}

// Save publishes atomically: a save that fails mid-write (here: the file
// size limit) or at the rename (the target is a directory) leaves no temp
// file behind and does not replace the existing index.
TEST(IndexTest, FailedSaveKeepsExistingIndexAndLeavesNoTemp) {
  const std::string dir = ::testing::TempDir() + "scis_index_publish";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/dir.annidx");
  const std::string path = dir + "/train.annidx";
  TestData small = MakeData(41, 30, 3, 0.2);
  ASSERT_TRUE(AnnIndex::Build(small.values, small.mask, {}).Save(path).ok());
  const std::string before = ReadFileBytes(path);

  TestData large = MakeData(43, 2000, 8, 0.2);
  const AnnIndex big = AnnIndex::Build(large.values, large.mask, {});
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = 4096;  // far below the large index's text size
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Status too_big = big.Save(path);
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_EQ(too_big.code(), StatusCode::kIoError) << too_big.ToString();
  EXPECT_EQ(ReadFileBytes(path), before);

  EXPECT_EQ(big.Save(dir + "/dir.annidx").code(), StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/dir.annidx"));
  EXPECT_EQ(TempSiblings(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST(IndexTest, BuildAndSearchBitIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  TestData data = MakeData(11, 3000, 5, 0.25);
  SearchOptions sopts;
  sopts.k = 10;
  sopts.max_leaf_visits = 8;
  runtime::SetNumThreads(1);
  const AnnIndex base = AnnIndex::Build(data.values, data.mask, {});
  const std::vector<std::vector<Neighbor>> base_results =
      base.SelfNeighbors(sopts);
  for (int threads : {2, 4}) {
    runtime::SetNumThreads(threads);
    const AnnIndex idx = AnnIndex::Build(data.values, data.mask, {});
    EXPECT_TRUE(base == idx) << "build differs at " << threads << " threads";
    const std::vector<std::vector<Neighbor>> results =
        idx.SelfNeighbors(sopts);
    ASSERT_EQ(results.size(), base_results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(SameNeighbors(results[i], base_results[i]))
          << "query " << i << " differs at " << threads << " threads";
    }
  }
}

TEST(IndexTest, EmptyMaskQueryAndEmptyIndex) {
  TestData data = MakeData(13, 100, 4, 0.3);
  const AnnIndex idx = AnnIndex::Build(data.values, data.mask, {});
  const std::vector<double> zeros(4, 0.0);
  SearchOptions sopts;
  EXPECT_TRUE(
      idx.Search(data.values.row_data(0), zeros.data(), sopts).empty());
  const AnnIndex empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(
      empty.Search(data.values.row_data(0), data.mask.row_data(0), sopts)
          .empty());
}

TEST(IndexTest, SearchNeverReturnsExcludedOrInfinite) {
  CHECK_DATASET_PROPERTY(
      "index_search_contract",
      [](Rng& rng) {
        testkit::DatasetGen g;
        g.max_rows = 64;
        g.max_cols = 6;
        return testkit::GenDataset(rng, g);
      },
      [](const Dataset& data) {
        IndexOptions iopts;
        iopts.max_leaf_rows = 8;
        const AnnIndex idx =
            AnnIndex::Build(data.values(), data.mask(), iopts);
        SearchOptions sopts;
        sopts.k = 5;
        for (size_t i = 0; i < data.num_rows(); ++i) {
          const std::vector<Neighbor> got = idx.Search(
              data.values().row_data(i), data.mask().row_data(i), sopts, i);
          for (const Neighbor& nb : got) {
            PROP_CHECK_MSG(nb.row != i, "excluded row returned");
            PROP_CHECK_MSG(std::isfinite(nb.distance) && nb.distance >= 0.0, "non-finite distance returned");
          }
        }
        return testkit::PropertyStatus::Pass();
      });
}

TEST(KnnGraphTest, ShapeAndSelfLoops) {
  Rng rng(2);
  Matrix x = rng.UniformMatrix(20, 4, 0, 1);
  Matrix m = Matrix::Ones(20, 4);
  SparseMatrix g = index::BuildKnnGraph(x, m, 3);
  EXPECT_EQ(g.rows(), 20u);
  EXPECT_EQ(g.cols(), 20u);
  Matrix d = g.ToDense();
  for (size_t i = 0; i < 20; ++i) EXPECT_GT(d(i, i), 0.0);  // self loop
}

TEST(KnnGraphTest, SymmetricWeights) {
  Rng rng(3);
  Matrix x = rng.UniformMatrix(15, 3, 0, 1);
  Matrix m = Matrix::Ones(15, 3);
  Matrix d = index::BuildKnnGraph(x, m, 4).ToDense();
  for (size_t i = 0; i < 15; ++i)
    for (size_t j = 0; j < 15; ++j) EXPECT_NEAR(d(i, j), d(j, i), 1e-12);
}

TEST(KnnGraphTest, NormalizationBoundsSpectrum) {
  // Symmetric normalization keeps row sums ≤ ~1 and entries in [0,1].
  Rng rng(4);
  Matrix x = rng.UniformMatrix(30, 3, 0, 1);
  Matrix m = rng.BernoulliMatrix(30, 3, 0.8);
  Matrix d = index::BuildKnnGraph(x, m, 5).ToDense();
  for (size_t i = 0; i < 30; ++i) {
    double row = 0;
    for (size_t j = 0; j < 30; ++j) {
      EXPECT_GE(d(i, j), 0.0);
      EXPECT_LE(d(i, j), 1.0 + 1e-12);
      row += d(i, j);
    }
    EXPECT_LE(row, 1.5);  // D^{-1/2}AD^{-1/2} row sums are near 1
    EXPECT_GT(row, 0.2);
  }
}

TEST(KnnGraphTest, NeighboursAreNearest) {
  // Two well-separated clusters: no cross-cluster edges for small k.
  Matrix x(10, 1);
  for (size_t i = 0; i < 5; ++i) x(i, 0) = 0.0 + 0.01 * double(i);
  for (size_t i = 5; i < 10; ++i) x(i, 0) = 10.0 + 0.01 * double(i);
  Matrix m = Matrix::Ones(10, 1);
  Matrix d = index::BuildKnnGraph(x, m, 2).ToDense();
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = 5; j < 10; ++j) EXPECT_DOUBLE_EQ(d(i, j), 0.0);
}

TEST(KnnGraphTest, KClampedToNMinusOne) {
  Rng rng(5);
  Matrix x = rng.UniformMatrix(3, 2, 0, 1);
  Matrix m = Matrix::Ones(3, 2);
  SparseMatrix g = index::BuildKnnGraph(x, m, 100);  // k > n-1
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_GT(g.nnz(), 0u);
}

TEST(KnnGraphTest, SingleRowIsItsSelfLoop) {
  Rng rng(6);
  const SparseMatrix g = index::BuildKnnGraph(rng.UniformMatrix(1, 3, 0, 1),
                                              Matrix::Ones(1, 3), 10);
  ASSERT_EQ(g.rows(), 1u);
  ASSERT_EQ(g.nnz(), 1u);
  EXPECT_EQ(g.col_idx()[0], 0u);
  EXPECT_EQ(g.values()[0], 1.0);
}

// The off-diagonal edges are exactly the oracle's kNN lists, symmetrized;
// a row at +inf from every other row (here: one observing nothing) has no
// neighbours and keeps only its self loop.
TEST(KnnGraphTest, EdgesAreSymmetrizedOracleNeighbors) {
  const size_t n = 80, d = 5, k = 6;
  TestData data = MakeData(23, n, d, 0.3);
  for (const size_t i : {0, 17, 41, 79}) {
    for (size_t j = 0; j < d; ++j) data.mask(i, j) = 0.0;
  }
  const SparseMatrix g = index::BuildKnnGraph(data.values, data.mask, k);
  ASSERT_EQ(g.rows(), n);
  std::set<std::pair<size_t, size_t>> want, got;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, dist] : testkit::NaiveMaskedKnn(
             data.values, data.mask, data.values.row_data(i),
             data.mask.row_data(i), k, i)) {
      want.insert({i, j});
      want.insert({j, i});
    }
    for (size_t p = g.row_ptr()[i]; p < g.row_ptr()[i + 1]; ++p) {
      if (g.col_idx()[p] != i) got.insert({i, g.col_idx()[p]});
    }
  }
  EXPECT_EQ(got, want);
  size_t empty_rows = 0;
  for (size_t i = 0; i < n; ++i) {
    bool observes = false;
    for (size_t j = 0; j < d; ++j) observes |= data.mask(i, j) == 1.0;
    if (observes) continue;
    ++empty_rows;
    ASSERT_EQ(g.row_ptr()[i + 1] - g.row_ptr()[i], 1u) << "row " << i;
    EXPECT_EQ(g.col_idx()[g.row_ptr()[i]], i);
  }
  EXPECT_GE(empty_rows, 4u);
}

TEST(KnnGraphAutoTest, LargeNPathIsDeterministicAndNormalized) {
  ThreadsGuard guard;
  const size_t n = index::kExactKnnMaxRows + 52;  // above: the tree path
  TestData data = MakeData(19, n, 5, 0.25);
  EXPECT_GT(index::BuildKnnIndex(data.values, data.mask).num_leaves(), 1u);
  runtime::SetNumThreads(1);
  const SparseMatrix a = index::BuildKnnGraph(data.values, data.mask, 6);
  runtime::SetNumThreads(4);
  const SparseMatrix b = index::BuildKnnGraph(data.values, data.mask, 6);
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
  // Every row keeps at least its self loop; graph is square over n rows.
  EXPECT_EQ(a.rows(), n);
  for (size_t i = 0; i < a.rows(); ++i) {
    EXPECT_GT(a.row_ptr()[i + 1], a.row_ptr()[i]);
  }
}

}  // namespace
}  // namespace scis
