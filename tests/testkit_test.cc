// Self-tests for the testkit harness: seed derivation/replay, failure
// reporting, greedy shrinking, golden matching, JSON shape extraction, and
// the deterministic generators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "testkit/generators.h"
#include "testkit/golden.h"
#include "testkit/gtest_glue.h"
#include "testkit/models.h"
#include "testkit/property.h"
#include "testkit/shrink.h"

namespace scis {
namespace {

using testkit::DatasetGen;
using testkit::GenDataset;
using testkit::GenMask;
using testkit::GenMatrix;
using testkit::GenMlpConfig;
using testkit::MaskMechanism;
using testkit::MatrixGen;
using testkit::PropertyOptions;
using testkit::PropertyRunResult;
using testkit::PropertyStatus;

// Scoped env var so replay/golden tests cannot leak state into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(TestkitSeedTest, DeriveSeedIsDeterministicAndNameKeyed) {
  EXPECT_EQ(testkit::DeriveSeed("p", 0, 3), testkit::DeriveSeed("p", 0, 3));
  EXPECT_NE(testkit::DeriveSeed("p", 0, 3), testkit::DeriveSeed("p", 0, 4));
  EXPECT_NE(testkit::DeriveSeed("p", 0, 3), testkit::DeriveSeed("q", 0, 3));
  EXPECT_NE(testkit::DeriveSeed("p", 0, 3), testkit::DeriveSeed("p", 1, 3));
}

TEST(TestkitSeedTest, ReplaySeedFromEnvParses) {
  {
    ScopedEnv env("SCIS_TESTKIT_SEED", nullptr);
    EXPECT_FALSE(testkit::ReplaySeedFromEnv().has_value());
  }
  {
    ScopedEnv env("SCIS_TESTKIT_SEED", "12345");
    ASSERT_TRUE(testkit::ReplaySeedFromEnv().has_value());
    EXPECT_EQ(*testkit::ReplaySeedFromEnv(), 12345u);
  }
  {
    ScopedEnv env("SCIS_TESTKIT_SEED", "not-a-number");
    EXPECT_FALSE(testkit::ReplaySeedFromEnv().has_value());
  }
}

TEST(TestkitRunnerTest, PassingPropertyRunsAllIterations) {
  ScopedEnv env("SCIS_TESTKIT_SEED", nullptr);
  PropertyOptions opts;
  opts.iterations = 17;
  const PropertyRunResult result = testkit::RunPropertyImpl(
      "always_passes", [](uint64_t) { return PropertyStatus::Pass(); }, opts);
  EXPECT_TRUE(result.passed);
  EXPECT_EQ(result.iterations_run, 17);
}

TEST(TestkitRunnerTest, FailingPropertyReportsReplayableSeed) {
  ScopedEnv env("SCIS_TESTKIT_SEED", nullptr);
  // Fails for ~half of all seeds; the runner must hit one within 64 tries.
  auto prop = [](uint64_t seed) {
    return (seed % 2 == 0) ? PropertyStatus::Pass()
                           : PropertyStatus::Fail("odd seed");
  };
  PropertyOptions opts;
  opts.iterations = 64;
  const PropertyRunResult result =
      testkit::RunPropertyImpl("fails_on_odd", prop, opts);
  ASSERT_FALSE(result.passed);
  EXPECT_NE(result.failing_seed % 2, 0u);
  EXPECT_NE(result.report.find("SCIS_TESTKIT_SEED="), std::string::npos);
  EXPECT_NE(result.report.find("odd seed"), std::string::npos);

  // Replaying the reported seed reproduces the failure in one iteration.
  const std::string seed_str = std::to_string(result.failing_seed);
  ScopedEnv replay("SCIS_TESTKIT_SEED", seed_str.c_str());
  const PropertyRunResult replayed =
      testkit::RunPropertyImpl("fails_on_odd", prop, opts);
  EXPECT_FALSE(replayed.passed);
  EXPECT_EQ(replayed.iterations_run, 1);
  EXPECT_EQ(replayed.failing_seed, result.failing_seed);
}

TEST(TestkitRunnerTest, ReplaySeedOverridesIterationStream) {
  ScopedEnv env("SCIS_TESTKIT_SEED", "777");
  uint64_t seen = 0;
  const PropertyRunResult result = testkit::RunPropertyImpl(
      "replay_probe",
      [&](uint64_t seed) {
        seen = seed;
        return PropertyStatus::Pass();
      });
  EXPECT_TRUE(result.passed);
  EXPECT_EQ(result.iterations_run, 1);
  EXPECT_EQ(seen, 777u);
}

TEST(TestkitShrinkTest, ShrinksToMinimalFailingMatrix) {
  // "Bug": fails whenever any entry is >= 1. Minimal counterexample: 1x1.
  auto fails = [](const Matrix& m) {
    for (size_t k = 0; k < m.size(); ++k) {
      if (m[k] >= 1.0) return true;
    }
    return false;
  };
  Rng rng(7);
  Matrix big = rng.UniformMatrix(6, 5, 0.0, 2.0);
  ASSERT_TRUE(fails(big));
  const Matrix small = testkit::ShrinkMatrix(big, fails);
  EXPECT_TRUE(fails(small));
  EXPECT_EQ(small.rows(), 1u);
  EXPECT_EQ(small.cols(), 1u);
  // The surviving value also gets simplified (rounded toward an integer).
  EXPECT_DOUBLE_EQ(small(0, 0), std::round(small(0, 0)));
}

TEST(TestkitShrinkTest, ShrinksDatasetToMinimalMissingPattern) {
  // "Bug": fails whenever the dataset has at least one missing cell.
  auto fails = [](const Dataset& d) {
    for (size_t k = 0; k < d.mask().size(); ++k) {
      if (d.mask()[k] == 0.0) return true;
    }
    return false;
  };
  Rng rng(11);
  DatasetGen gen;
  gen.min_rows = 8;
  gen.max_rows = 16;
  gen.min_cols = 4;
  gen.max_cols = 8;
  gen.min_missing = 0.3;
  gen.max_missing = 0.5;
  gen.edge_case_prob = 0.0;
  Dataset big = GenDataset(rng, gen);
  ASSERT_TRUE(fails(big));
  const Dataset small = testkit::ShrinkDataset(big, fails);
  EXPECT_TRUE(fails(small));
  EXPECT_EQ(small.num_rows(), 1u);
  EXPECT_EQ(small.num_cols(), 1u);
  EXPECT_TRUE(small.Validate().ok());
}

TEST(TestkitRunnerTest, MatrixRunnerReportsShrunkCounterexample) {
  ScopedEnv env("SCIS_TESTKIT_SEED", nullptr);
  MatrixGen gen;
  gen.min_rows = 4;
  gen.max_rows = 8;
  gen.min_cols = 3;
  gen.max_cols = 6;
  gen.lo = 0.0;
  gen.hi = 2.0;
  const PropertyRunResult result = testkit::RunMatrixPropertyImpl(
      "matrix_entries_below_one",
      [&](Rng& rng) { return GenMatrix(rng, gen); },
      [](const Matrix& m) {
        for (size_t k = 0; k < m.size(); ++k) {
          if (m[k] >= 1.0) {
            return PropertyStatus::Fail("entry >= 1");
          }
        }
        return PropertyStatus::Pass();
      });
  ASSERT_FALSE(result.passed);
  EXPECT_FALSE(result.shrunk_input.empty());
  EXPECT_NE(result.report.find("shrunk counterexample"), std::string::npos);
}

TEST(TestkitGoldenTest, UpdateThenMatchThenMismatch) {
  const std::string dir = ::testing::TempDir() + "scis_golden_test";
  ASSERT_EQ(0, system(("mkdir -p " + dir).c_str()));
  std::remove((dir + "/t.txt").c_str());  // hermetic across reruns
  ScopedEnv dir_env("SCIS_GOLDEN_DIR", dir.c_str());
  {
    // Missing golden: the failure tells the user how to generate it.
    ScopedEnv upd("SCIS_UPDATE_GOLDENS", nullptr);
    const testkit::GoldenMatch miss = testkit::MatchGolden("t.txt", "a\nb\n");
    EXPECT_FALSE(miss.ok);
    EXPECT_NE(miss.message.find("SCIS_UPDATE_GOLDENS=1"), std::string::npos);
  }
  {
    ScopedEnv upd("SCIS_UPDATE_GOLDENS", "1");
    const testkit::GoldenMatch wrote = testkit::MatchGolden("t.txt", "a\nb\n");
    EXPECT_TRUE(wrote.ok);
    EXPECT_TRUE(wrote.updated);
    // Regeneration is bit-exact: writing the same content twice matches.
    const testkit::GoldenMatch again = testkit::MatchGolden("t.txt", "a\nb\n");
    EXPECT_TRUE(again.ok);
  }
  {
    ScopedEnv upd("SCIS_UPDATE_GOLDENS", nullptr);
    EXPECT_TRUE(testkit::MatchGolden("t.txt", "a\nb\n").ok);
    const testkit::GoldenMatch bad = testkit::MatchGolden("t.txt", "a\nc\n");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.message.find("line 2"), std::string::npos);
  }
}

TEST(TestkitGoldenTest, JsonShapeExtractsSortedKeyPaths) {
  const std::string shape = testkit::JsonShape(
      R"({"b": 1, "a": {"x": [1, 2], "y": "s"}, "c": [{"k": true}]})");
  EXPECT_EQ(shape,
            ":object\n"
            "a.x:array\n"
            "a.x[]:number\n"
            "a.y:string\n"
            "a:object\n"
            "b:number\n"
            "c:array\n"
            "c[].k:bool\n"
            "c[]:object\n");
  EXPECT_NE(testkit::JsonShape("{bad").find("<invalid json"),
            std::string::npos);
}

TEST(TestkitGeneratorTest, SameSeedSameOutput) {
  Rng a(99), b(99);
  EXPECT_TRUE(GenMatrix(a) == GenMatrix(b));
  Rng c(99), d(99);
  const Dataset da = GenDataset(c);
  const Dataset db = GenDataset(d);
  EXPECT_TRUE(da.values() == db.values());
  EXPECT_TRUE(da.mask() == db.mask());
}

TEST(TestkitGeneratorTest, DatasetsAreAlwaysValid) {
  CHECK_PROPERTY("generated_datasets_validate", [](uint64_t seed) {
    Rng rng(seed);
    DatasetGen gen;
    gen.mechanism = static_cast<MaskMechanism>(seed % 3);
    const Dataset d = GenDataset(rng, gen);
    const Status st = d.Validate();
    PROP_CHECK_MSG(st.ok(), st.ToString());
    PROP_CHECK(d.num_rows() >= 1 && d.num_cols() >= 1);
    return PropertyStatus::Pass();
  });
}

TEST(TestkitGeneratorTest, McarMaskHitsTargetRateOnLargeMatrix) {
  Rng rng(3);
  Matrix values = rng.UniformMatrix(200, 20, 0.0, 1.0);
  const Matrix mask = GenMask(rng, values, MaskMechanism::kMcar, 0.3);
  double missing = 0.0;
  for (size_t k = 0; k < mask.size(); ++k) missing += (mask[k] == 0.0);
  missing /= static_cast<double>(mask.size());
  EXPECT_NEAR(missing, 0.3, 0.05);
}

TEST(TestkitGeneratorTest, MlpConfigBuildsWorkingNetwork) {
  CHECK_PROPERTY("mlp_config_forward_shapes", [](uint64_t seed) {
    Rng rng(seed);
    const size_t in = 1 + rng.UniformIndex(6);
    const size_t out = 1 + rng.UniformIndex(4);
    const testkit::MlpConfig config = GenMlpConfig(rng, in, out);
    ParamStore store;
    auto mlp = testkit::BuildMlp(&store, "p", config);
    PROP_CHECK(mlp->in_dim() == in && mlp->out_dim() == out);
    Tape tape;
    Matrix x = rng.NormalMatrix(3, in, 0.0, 1.0);
    const Matrix y = mlp->Forward(tape, tape.Constant(x)).value();
    PROP_CHECK(y.rows() == 3 && y.cols() == out);
    for (size_t k = 0; k < y.size(); ++k) PROP_CHECK(std::isfinite(y[k]));
    return PropertyStatus::Pass();
  });
}

TEST(TestkitModelTest, TinyMlpModelHonorsGenerativeContract) {
  Rng rng(5);
  DatasetGen gen;
  gen.min_rows = 12;
  gen.max_rows = 12;
  gen.min_cols = 3;
  gen.max_cols = 3;
  const Dataset data = GenDataset(rng, gen);
  testkit::TinyMlpModel model(testkit::TinyMlpModel::DefaultConfig(3, 21), 3);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_GT(model.generator_params().NumScalars(), 0u);
  // Deterministic reconstruction (no noise at train=false).
  EXPECT_TRUE(model.Reconstruct(data) == model.Reconstruct(data));
}

}  // namespace
}  // namespace scis
