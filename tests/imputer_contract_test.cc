// Contract tests every imputer in the registry must satisfy, parameterized
// over the factory names: shape preservation, Eq.-1 observed-cell
// passthrough, finiteness, bit-exact determinism under a fixed seed,
// repeatable Reconstruct, and better-than-garbage accuracy on learnable data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/missingness.h"
#include "data/normalizer.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace scis {
namespace {

PreparedData SmallPrep(uint64_t seed = 13) {
  SyntheticSpec spec = TrialSpec(1e-9);  // 512 rows x 9 cols
  return PrepareData(spec, 0.2, 0.0, seed);
}

class ImputerContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ImputerContractTest, ReconstructShapeAndFiniteness) {
  PreparedData prep = SmallPrep();
  auto imp = MakeImputer(GetParam(), 3, 13);
  ASSERT_TRUE(imp.ok());
  ASSERT_TRUE((*imp)->Fit(prep.train).ok());
  Matrix rec = (*imp)->Reconstruct(prep.train);
  ASSERT_EQ(rec.rows(), prep.train.num_rows());
  ASSERT_EQ(rec.cols(), prep.train.num_cols());
  for (size_t k = 0; k < rec.size(); ++k) {
    EXPECT_TRUE(std::isfinite(rec.data()[k])) << GetParam();
  }
}

TEST_P(ImputerContractTest, ImputePreservesObservedCells) {
  PreparedData prep = SmallPrep();
  auto imp = MakeImputer(GetParam(), 3, 13);
  ASSERT_TRUE(imp.ok());
  ASSERT_TRUE((*imp)->Fit(prep.train).ok());
  Matrix imputed = (*imp)->Impute(prep.train);
  for (size_t k = 0; k < imputed.size(); ++k) {
    if (prep.train.mask().data()[k] == 1.0) {
      EXPECT_DOUBLE_EQ(imputed.data()[k], prep.train.values().data()[k])
          << GetParam();
    }
  }
}

TEST_P(ImputerContractTest, DeterministicUnderFixedSeed) {
  PreparedData prep = SmallPrep();
  auto a = MakeImputer(GetParam(), 2, 99);
  auto b = MakeImputer(GetParam(), 2, 99);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Fit(prep.train).ok());
  ASSERT_TRUE((*b)->Fit(prep.train).ok());
  Matrix ra = (*a)->Reconstruct(prep.train);
  Matrix rb = (*b)->Reconstruct(prep.train);
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)), 0)
      << GetParam();
}

// Reconstruct is const: calling it again returns the same bytes, so
// inference noise must not come from (or advance) the training stream.
TEST_P(ImputerContractTest, ReconstructIsRepeatable) {
  PreparedData prep = SmallPrep();
  auto imp = MakeImputer(GetParam(), 2, 99);
  ASSERT_TRUE(imp.ok());
  ASSERT_TRUE((*imp)->Fit(prep.train).ok());
  Matrix first = (*imp)->Reconstruct(prep.train);
  Matrix second = (*imp)->Reconstruct(prep.train);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(std::memcmp(first.data(), second.data(),
                        first.size() * sizeof(double)),
            0)
      << GetParam();
}

TEST_P(ImputerContractTest, RmseBetterThanWorstCase) {
  // Any sane imputer on [0,1]-normalized data beats RMSE 0.6 (predicting
  // the wrong extreme everywhere).
  PreparedData prep = SmallPrep();
  auto imp = MakeImputer(GetParam(), 3, 13);
  ASSERT_TRUE(imp.ok());
  MethodResult r = RunPlain(**imp, prep);
  EXPECT_TRUE(r.finished);
  EXPECT_LT(r.rmse, 0.6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllImputers, ImputerContractTest,
    ::testing::ValuesIn(KnownImputerNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace scis
