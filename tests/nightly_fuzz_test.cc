// Nightly long-fuzz suite (ctest label: nightly). The same properties as
// tier 1, run for many more iterations — and intended to be run under the
// tsan/asan presets too (scripts/ci.sh nightly). Iteration counts scale
// with SCIS_NIGHTLY_ITERS (default 200) so the default `ctest` invocation
// stays in tens of seconds while a real nightly can run thousands.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "ot/divergence.h"
#include "ot/sinkhorn.h"
#include "tensor/matrix_ops.h"
#include "testkit/generators.h"
#include "testkit/gtest_glue.h"
#include "testkit/oracles.h"
#include "fuzz_common.h"

namespace scis {
namespace {

using testkit::GenMask;
using testkit::MaskMechanism;
using testkit::PropertyStatus;

int NightlyIters(int scale = 1) {
  const char* env = std::getenv("SCIS_NIGHTLY_ITERS");
  int base = 200;
  if (env && *env) base = std::max(1, std::atoi(env));
  return std::max(1, base / scale);
}

TEST(NightlyFuzzTest, AutodiffChainLongFuzz) {
  testkit::PropertyOptions opts;
  opts.iterations = NightlyIters();
  CHECK_PROPERTY("nightly_autodiff_chain", AutodiffChainProperty, opts);
}

TEST(NightlyFuzzTest, SinkhornOracleLongFuzz) {
  testkit::PropertyOptions opts;
  opts.iterations = NightlyIters(/*scale=*/4);  // each seed solves twice
  CHECK_PROPERTY(
      "nightly_sinkhorn_oracle",
      [](uint64_t seed) {
        Rng rng(seed);
        const size_t n = 2 + rng.UniformIndex(8);
        const size_t m = 2 + rng.UniformIndex(8);
        const Matrix cost = PairwiseSquaredDistances(
            rng.UniformMatrix(n, 3, 0.0, 1.0),
            rng.UniformMatrix(m, 3, 0.0, 1.0));
        const double lambda = 0.2 + rng.Uniform() * 20.0;
        SinkhornOptions opts;
        opts.lambda = lambda;
        opts.max_iters = 20000;
        opts.tol = 1e-13;
        const SinkhornSolution fast = SolveSinkhorn(cost, opts);
        const testkit::OtOracle slow =
            testkit::SolveEntropicOtOracle(cost, lambda);
        PROP_CHECK_MSG(slow.converged, "oracle did not converge");
        PROP_CHECK_NEAR(fast.reg_value, slow.reg_value,
                        1e-8 * (1.0 + std::abs(slow.reg_value)));
        PROP_CHECK_MSG(fast.plan.AllClose(slow.plan, 1e-8),
                       "transport plans disagree");
        return PropertyStatus::Pass();
      },
      opts);
}

TEST(NightlyFuzzTest, MsDivergenceGradLongFuzz) {
  testkit::PropertyOptions opts;
  opts.iterations = NightlyIters(/*scale=*/8);  // O(n·d) solves per seed
  CHECK_PROPERTY(
      "nightly_ms_grad",
      [](uint64_t seed) {
        Rng rng(seed);
        const size_t n = 2 + rng.UniformIndex(4);
        const size_t d = 1 + rng.UniformIndex(3);
        const Matrix x = rng.UniformMatrix(n, d, 0.0, 1.0);
        const Matrix xbar = rng.UniformMatrix(n, d, 0.0, 1.0);
        const Matrix m =
            GenMask(rng, x, static_cast<MaskMechanism>(seed % 3), 0.3);
        SinkhornOptions opts;
        opts.lambda = 0.5 + rng.Uniform() * 10.0;
        opts.max_iters = 20000;
        opts.tol = 1e-13;
        const DivergenceResult r = MsDivergence(xbar, x, m, opts, true);
        auto value_at = [&](const Matrix& xb) {
          return MsDivergence(xb, x, m, opts, false).value;
        };
        PROP_CHECK_LE(MaxGradError(value_at, xbar, r.grad_xbar, 1e-5), 5e-6);
        return PropertyStatus::Pass();
      },
      opts);
}

TEST(NightlyFuzzTest, SinkhornEdgeLongFuzz) {
  testkit::PropertyOptions opts;
  opts.iterations = NightlyIters();
  CHECK_PROPERTY("nightly_sinkhorn_edge", SinkhornEdgeCaseProperty, opts);
}

TEST(NightlyFuzzTest, DatasetGeneratorAlwaysValidates) {
  testkit::PropertyOptions opts;
  opts.iterations = NightlyIters();
  CHECK_PROPERTY(
      "nightly_dataset_validate",
      [](uint64_t seed) {
        Rng rng(seed);
        testkit::DatasetGen g;
        g.max_rows = 64;
        g.mechanism = static_cast<MaskMechanism>(seed % 3);
        const Dataset data = testkit::GenDataset(rng, g);
        const Status s = data.Validate();
        PROP_CHECK_MSG(s.ok(), s.message());
        return PropertyStatus::Pass();
      },
      opts);
}

}  // namespace
}  // namespace scis
