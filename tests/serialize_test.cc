#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "lifecycle/model_rebuild.h"
#include "models/gain_imputer.h"
#include "nn/serialize.h"
#include "serve/checkpoint_loader.h"
#include "tensor/rng.h"

namespace scis {
namespace {

namespace fs = std::filesystem;

CheckpointMeta ThreeColumnMeta() {
  CheckpointMeta meta;
  meta.model = "GAIN";
  meta.columns = {{"age", 0, 0}, {"blood type", 2, 4}, {"smoker", 1, 0}};
  meta.norm_lo = {0.0, -1.5, 0.0};
  meta.norm_hi = {120.0, 2.5, 1.0};
  return meta;
}

// A GAIN-shaped generator store (2d -> d -> d) for an d-column schema.
ParamStore GainShapedStore(size_t d, uint64_t seed) {
  Rng rng(seed);
  ParamStore store;
  store.Add("g.l0.W", rng.NormalMatrix(2 * d, d, 0.0, 0.5));
  store.Add("g.l0.b", rng.NormalMatrix(1, d, 0.0, 0.1));
  store.Add("g.l1.W", rng.NormalMatrix(d, d, 0.0, 0.5));
  store.Add("g.l1.b", rng.NormalMatrix(1, d, 0.0, 0.1));
  return store;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// Leftover "<name>.tmp.*" siblings would mean a failed publish leaked its
// temp file.
size_t TempSiblings(const std::string& dir) {
  size_t n = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp.") != std::string::npos) ++n;
  }
  return n;
}

TEST(SerializeTest, RoundTripPreservesValues) {
  const ParamStore store = GainShapedStore(3, 1);
  const std::string path = "/tmp/scis_params_test.bin";
  ASSERT_TRUE(SaveCheckpoint(store, ThreeColumnMeta(), path).ok());

  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->params.size(), store.size());
  for (size_t id = 0; id < store.size(); ++id) {
    EXPECT_EQ(loaded->params[id].name, store.name(id));
    EXPECT_TRUE(loaded->params[id].value == store.value(id));  // bit-exact
  }
  std::remove(path.c_str());
}

// Restoring into a model is positional and shape-checked
// (lifecycle/model_rebuild): a checkpoint whose layer shapes disagree with
// the schema's generator is refused, by the rebuild and by the engine.
TEST(SerializeTest, RejectsShapeMismatch) {
  ParamStore store = GainShapedStore(3, 2);
  store.value(2) = Matrix::Zeros(2, 3);  // breaks the hidden d -> d layer
  const std::string path = "/tmp/scis_params_shape.bin";
  ASSERT_TRUE(SaveCheckpoint(store, ThreeColumnMeta(), path).ok());
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(lifecycle::RebuildTrainableModel(*loaded, 7).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::ImputationEngine::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsCountMismatchAndMissingFile) {
  ParamStore store = GainShapedStore(3, 3);
  ParamStore short_store;
  short_store.Add(store.name(0), store.value(0));
  short_store.Add(store.name(1), store.value(1));
  const std::string path = "/tmp/scis_params_count.bin";
  ASSERT_TRUE(SaveCheckpoint(short_store, ThreeColumnMeta(), path).ok());
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(lifecycle::RebuildTrainableModel(*loaded, 7).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadCheckpoint("/nonexistent/params.bin").status().code(),
            StatusCode::kIoError);
  std::remove(path.c_str());
}

// The retired text formats and empty files are typed errors on every load
// path — the plain loader, the engine, and the hot-swap loader — never a
// crash, and the message tells the operator how to replace the file.
TEST(SerializeTest, LoadCheckpointRejectsRetiredFormats) {
  const std::string path = "/tmp/scis_params_retired.txt";
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"v1", "scis-params v1\n1\nw 1 2\n1.5 -2.25\n"},
      {"v2",
       "scis-params v2\nmodel GAIN\ncolumns 1\n0 0 c0\nnormalizer 1\n0\n1\n"
       "params 2\ng.l0.W 2 1\n0.5 -0.5\ng.l0.b 1 1\n0.1\n"},
      {"empty", ""}};
  for (const auto& [what, bytes] : inputs) {
    WriteFile(path, bytes);
    const Status plain = LoadCheckpoint(path).status();
    EXPECT_EQ(plain.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(plain.message().find("scis_impute --save_params"),
              std::string::npos)
        << plain.ToString();
    EXPECT_EQ(serve::ImputationEngine::Load(path).status().code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(serve::LoadAndValidateCheckpoint(path).status().code(),
              StatusCode::kInvalidArgument)
        << what;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveCheckpointValidatesMeta) {
  ParamStore store;
  store.Add("w", Matrix{{1.0}});
  CheckpointMeta meta;
  meta.model = "GAIN";
  meta.columns = {{"c0", 0, 0}};
  meta.norm_lo = {0.0, 1.0};  // size disagrees with columns
  meta.norm_hi = {1.0, 2.0};
  const std::string path = "/tmp/scis_params_bad.bin";
  std::remove(path.c_str());
  EXPECT_EQ(SaveCheckpoint(store, meta, path).code(),
            StatusCode::kInvalidArgument);
  meta.model.clear();
  meta.norm_lo = {0.0};
  meta.norm_hi = {1.0};
  EXPECT_EQ(SaveCheckpoint(store, meta, path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fs::exists(path));
}

TEST(SerializeTest, V3BinaryCheckpointMapsBackBitExact) {
  ParamStore store;
  Rng rng(7);
  store.Add("g.l0.W", rng.NormalMatrix(6, 3));
  store.Add("g.l0.b", rng.NormalMatrix(1, 3));
  store.Add("g.l1.W", rng.NormalMatrix(3, 3));
  store.Add("g.l1.b", rng.NormalMatrix(1, 3));

  const CheckpointMeta meta = ThreeColumnMeta();
  const std::string path = "/tmp/scis_params_v3.bin";
  ASSERT_TRUE(SaveCheckpoint(store, meta, path).ok());

  Result<std::shared_ptr<const MappedCheckpoint>> mapped =
      MappedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->meta().model, "GAIN");
  ASSERT_EQ((*mapped)->meta().columns.size(), 3u);
  EXPECT_EQ((*mapped)->meta().columns[1].name, "blood type");
  EXPECT_EQ((*mapped)->meta().columns[1].kind, 2);
  EXPECT_EQ((*mapped)->meta().columns[1].num_categories, 4);
  EXPECT_EQ((*mapped)->meta().norm_lo, meta.norm_lo);
  EXPECT_EQ((*mapped)->meta().norm_hi, meta.norm_hi);
  ASSERT_EQ((*mapped)->params().size(), 4u);
  for (size_t id = 0; id < store.size(); ++id) {
    const MappedCheckpoint::ParamView& p = (*mapped)->params()[id];
    EXPECT_EQ(p.name, store.name(id));
    ASSERT_EQ(p.rows, store.value(id).rows());
    ASSERT_EQ(p.cols, store.value(id).cols());
    // Zero-copy views are 64-byte aligned (blob layout + page-aligned map),
    // so downstream kernels can use aligned loads.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p.data) % 64, 0u);
    for (size_t k = 0; k < p.rows * p.cols; ++k) {
      EXPECT_EQ(p.data[k], store.value(id).data()[k]);  // bit-exact
    }
  }

  // LoadCheckpoint maps and deep-copies.
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 3);
  ASSERT_EQ(loaded->params.size(), 4u);
  EXPECT_TRUE(loaded->params[0].value.AllClose(store.value(0), 0.0));
  std::remove(path.c_str());
}

TEST(SerializeTest, V3MapRejectsCorruptFiles) {
  ParamStore store;
  Rng rng(8);
  store.Add("w", rng.NormalMatrix(2, 2));
  CheckpointMeta meta;
  meta.model = "GAIN";
  meta.columns = {{"c0", 0, 0}};
  meta.norm_lo = {0.0};
  meta.norm_hi = {1.0};
  const std::string path = "/tmp/scis_params_v3_corrupt.bin";
  ASSERT_TRUE(SaveCheckpoint(store, meta, path).ok());

  // Read the valid bytes back so we can write corrupted variants.
  std::vector<char> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }

  // Truncated mid-header and truncated mid-blob must both fail cleanly
  // (the last cut leaves fewer blob doubles than the 2x2 param declares).
  for (size_t cut : {size_t{6}, bytes.size() / 2, bytes.size() - 40}) {
    WriteFile(path, std::string(bytes.data(), cut));
    EXPECT_FALSE(MappedCheckpoint::Map(path).ok()) << "cut=" << cut;
  }

  // A corrupted magic is not a checkpoint at all.
  bytes[0] ^= 0xff;
  WriteFile(path, std::string(bytes.data(), bytes.size()));
  EXPECT_EQ(MappedCheckpoint::Map(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Re-saving over a checkpoint that an engine still has mapped must not touch
// the mapped bytes: the writer publishes a new file by rename instead of
// truncating the old one in place (which, for a shorter file, is a SIGBUS
// in the server).
TEST(SerializeTest, ResaveLeavesLiveMappingIntact) {
  const std::string dir = ::testing::TempDir() + "scis_atomic_publish";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/model.bin";
  const ParamStore old_store = GainShapedStore(3, 21);
  const ParamStore new_store = GainShapedStore(3, 22);
  ASSERT_TRUE(SaveCheckpoint(old_store, ThreeColumnMeta(), path).ok());

  Result<std::shared_ptr<const MappedCheckpoint>> live =
      MappedCheckpoint::Map(path);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(SaveCheckpoint(new_store, ThreeColumnMeta(), path).ok());

  Result<std::shared_ptr<const MappedCheckpoint>> fresh =
      MappedCheckpoint::Map(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (size_t id = 0; id < old_store.size(); ++id) {
    const Matrix& was = old_store.value(id);
    const Matrix& now = new_store.value(id);
    for (size_t k = 0; k < was.size(); ++k) {
      EXPECT_EQ((*live)->params()[id].data[k], was.data()[k]);
      EXPECT_EQ((*fresh)->params()[id].data[k], now.data()[k]);
    }
  }
  EXPECT_EQ(TempSiblings(dir), 0u);
  fs::remove_all(dir);
}

// A publish that fails after the temp file exists (here: the rename, whose
// target is a directory) removes the temp file and leaves the target alone.
TEST(SerializeTest, FailedPublishRemovesTempFile) {
  const std::string dir = ::testing::TempDir() + "scis_failed_publish";
  fs::remove_all(dir);
  fs::create_directories(dir + "/model.bin");
  EXPECT_EQ(SaveCheckpoint(GainShapedStore(3, 5), ThreeColumnMeta(),
                           dir + "/model.bin")
                .code(),
            StatusCode::kIoError);
  EXPECT_TRUE(fs::is_directory(dir + "/model.bin"));
  EXPECT_EQ(TempSiblings(dir), 0u);
  EXPECT_EQ(SaveCheckpoint(GainShapedStore(3, 5), ThreeColumnMeta(),
                           dir + "/missing/model.bin")
                .code(),
            StatusCode::kIoError);
  fs::remove_all(dir);
}

TEST(SerializeTest, TrainedGainCheckpointRestoresImputations) {
  Rng rng(2);
  Matrix values = rng.UniformMatrix(120, 3, 0, 1);
  Matrix mask = rng.BernoulliMatrix(120, 3, 0.7);
  MulInPlace(values, mask);
  Dataset data("ckpt", values, mask, {});

  GainImputerOptions o;
  o.deep.epochs = 5;
  GainImputer gain(o);
  ASSERT_TRUE(gain.Fit(data).ok());
  Matrix before = gain.Reconstruct(data);
  const std::string path = "/tmp/scis_gain_ckpt.bin";
  ASSERT_TRUE(SaveCheckpoint(gain.generator_params(), ThreeColumnMeta(), path)
                  .ok());

  // A fresh model with a different seed, rebuilt from the file alone.
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<std::unique_ptr<GenerativeImputer>> fresh =
      lifecycle::RebuildTrainableModel(*loaded, /*seed=*/999);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  Matrix after = (*fresh)->Reconstruct(data);
  EXPECT_TRUE(after.AllClose(before, 1e-12));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scis
