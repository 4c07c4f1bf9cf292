// Round-trip properties for the persisted formats: CSV datasets (missing
// cells as empty fields, max_digits10 text) and v3 checkpoints (raw f64).
// Both promise bit-exact double round trips, so the properties compare with
// operator== — not AllClose.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "data/csv.h"
#include "nn/serialize.h"
#include "testkit/generators.h"
#include "testkit/gtest_glue.h"

namespace scis {
namespace {

using testkit::DatasetGen;
using testkit::GenDataset;
using testkit::GenMlpConfig;
using testkit::MaskMechanism;
using testkit::MlpConfig;
using testkit::PropertyStatus;

// Unique scratch path per call; the file is removed by the caller.
std::string TmpPath(const std::string& stem, uint64_t seed) {
  return ::testing::TempDir() + "scis_" + stem + "_" + std::to_string(seed);
}

PropertyStatus CsvRoundTrips(const Dataset& data, uint64_t seed) {
  const std::string path = TmpPath("csv", seed);
  const Status ws = WriteCsvDataset(data, path);
  PROP_CHECK_MSG(ws.ok(), ws.message());
  Result<Dataset> rt = ReadCsvDataset(path, data.name());
  std::remove(path.c_str());
  PROP_CHECK_MSG(rt.ok(), rt.status().message());
  const Dataset& back = rt.value();
  PROP_CHECK(back.num_rows() == data.num_rows());
  PROP_CHECK(back.num_cols() == data.num_cols());
  PROP_CHECK_MSG(back.values() == data.values(),
                 "values changed across the CSV round trip");
  PROP_CHECK_MSG(back.mask() == data.mask(),
                 "mask changed across the CSV round trip");
  for (size_t j = 0; j < data.num_cols(); ++j) {
    PROP_CHECK_MSG(back.columns()[j].name == data.columns()[j].name,
                   "column name changed: " + data.columns()[j].name);
  }
  const Status vs = back.Validate();
  PROP_CHECK_MSG(vs.ok(), vs.message());
  return PropertyStatus::Pass();
}

TEST(SerializationPropertyTest, CsvRoundTripsBitExactAcrossMechanisms) {
  for (const MaskMechanism mech :
       {MaskMechanism::kMcar, MaskMechanism::kMar, MaskMechanism::kMnar}) {
    DatasetGen g;
    g.mechanism = mech;
    g.lo = -50.0;  // exercise negatives and magnitudes beyond [0,1]
    g.hi = 50.0;
    const std::string name =
        "csv_round_trip_mech" + std::to_string(static_cast<int>(mech));
    CHECK_PROPERTY(name, [&](uint64_t seed) {
      Rng rng(seed);
      return CsvRoundTrips(GenDataset(rng, g), seed);
    });
  }
}

TEST(SerializationPropertyTest, CsvRoundTripsEdgeShapes) {
  // Force the edge shapes instead of leaving them to the 25% coin: a
  // 1-column dataset (where a blank line is a data row, not a separator)
  // and a dataset containing a fully-missing row.
  CHECK_PROPERTY("csv_round_trip_single_column", [](uint64_t seed) {
    Rng rng(seed);
    DatasetGen g;
    g.min_cols = 1;
    g.max_cols = 1;
    g.min_missing = 0.3;
    g.max_missing = 0.8;  // blank lines likely
    g.edge_case_prob = 0.0;
    return CsvRoundTrips(GenDataset(rng, g), seed);
  });
  CHECK_PROPERTY("csv_round_trip_empty_row", [](uint64_t seed) {
    Rng rng(seed);
    DatasetGen g;
    g.edge_case_prob = 0.0;
    Dataset data = GenDataset(rng, g);
    // Blank out one full row.
    const size_t r = rng.UniformIndex(data.num_rows());
    for (size_t j = 0; j < data.num_cols(); ++j) {
      data.mutable_mask()(r, j) = 0.0;
      data.mutable_values()(r, j) = 0.0;
    }
    return CsvRoundTrips(data, seed);
  });
}

TEST(SerializationPropertyTest, ParamStoreRoundTripsBitExact) {
  CHECK_PROPERTY("params_round_trip", [](uint64_t seed) {
    Rng rng(seed);
    const size_t in_dim = 1 + rng.UniformIndex(6);
    const size_t out_dim = 1 + rng.UniformIndex(6);
    MlpConfig config = GenMlpConfig(rng, in_dim, out_dim);

    ParamStore saved_store;
    auto mlp = testkit::BuildMlp(&saved_store, "rt.G", config);
    CheckpointMeta meta;
    meta.model = "MLP";
    for (size_t j = 0; j < out_dim; ++j) {
      meta.columns.push_back({"c" + std::to_string(j), 0, 0});
      meta.norm_lo.push_back(rng.Uniform(-1.0, 0.0));
      meta.norm_hi.push_back(rng.Uniform(1.0, 2.0));
    }
    const std::string path = TmpPath("params", seed);
    const Status ws = SaveCheckpoint(saved_store, meta, path);
    PROP_CHECK_MSG(ws.ok(), ws.message());
    Result<Checkpoint> loaded = LoadCheckpoint(path);
    std::remove(path.c_str());
    PROP_CHECK_MSG(loaded.ok(), loaded.status().message());

    PROP_CHECK(loaded->meta.norm_lo == meta.norm_lo);
    PROP_CHECK(loaded->meta.norm_hi == meta.norm_hi);
    PROP_CHECK(loaded->params.size() == saved_store.size());
    for (size_t id = 0; id < saved_store.size(); ++id) {
      const Matrix& a = saved_store.value(id);
      const Matrix& b = loaded->params[id].value;
      PROP_CHECK(loaded->params[id].name == saved_store.name(id));
      PROP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
      for (size_t k = 0; k < a.size(); ++k) {
        PROP_CHECK_MSG(a[k] == b[k],
                       "parameter " + saved_store.name(id) + "[" +
                           std::to_string(k) +
                           "] changed across the checkpoint round trip");
      }
    }
    return PropertyStatus::Pass();
  });
}

}  // namespace
}  // namespace scis
