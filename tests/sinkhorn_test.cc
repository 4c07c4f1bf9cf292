#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "ot/divergence.h"
#include "ot/masked_cost.h"
#include "ot/sinkhorn.h"
#include "runtime/runtime.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "testkit/gtest_glue.h"
#include "fuzz_common.h"

namespace scis {
namespace {

SinkhornOptions Opts(double lambda, int iters = 500) {
  SinkhornOptions o;
  o.lambda = lambda;
  o.max_iters = iters;
  o.tol = 1e-12;
  return o;
}

TEST(SinkhornTest, TrivialOneByOne) {
  Matrix c{{3.0}};
  SinkhornSolution s = SolveSinkhorn(c, Opts(0.5));
  EXPECT_NEAR(s.plan(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(s.transport_cost, 3.0, 1e-9);
  // Entropy of a point mass is 0: reg value equals transport cost.
  EXPECT_NEAR(s.reg_value, 3.0, 1e-9);
}

class SinkhornMarginalsTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(SinkhornMarginalsTest, PlanRespectsUniformMarginals) {
  auto [n, m, lambda] = GetParam();
  Rng rng(n * 100 + m);
  Matrix c = rng.UniformMatrix(n, m, 0.0, 2.0);
  SinkhornSolution s = SolveSinkhorn(c, Opts(lambda));
  EXPECT_TRUE(s.converged);
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    double row = 0;
    for (size_t j = 0; j < static_cast<size_t>(m); ++j) {
      EXPECT_GE(s.plan(i, j), 0.0);
      row += s.plan(i, j);
    }
    EXPECT_NEAR(row, 1.0 / n, 1e-8);
  }
  for (size_t j = 0; j < static_cast<size_t>(m); ++j) {
    double col = 0;
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) col += s.plan(i, j);
    EXPECT_NEAR(col, 1.0 / m, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SinkhornMarginalsTest,
    ::testing::Values(std::make_tuple(2, 2, 0.1), std::make_tuple(5, 3, 0.5),
                      std::make_tuple(8, 8, 1.0), std::make_tuple(16, 4, 5.0),
                      std::make_tuple(32, 32, 130.0),
                      std::make_tuple(3, 17, 0.05)));

TEST(SinkhornTest, LargeLambdaApproachesIndependentPlan) {
  // As λ→∞ the entropic optimum is the product of marginals.
  Rng rng(3);
  Matrix c = rng.UniformMatrix(4, 4, 0, 1);
  SinkhornSolution s = SolveSinkhorn(c, Opts(1e4));
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(s.plan(i, j), 1.0 / 16.0, 1e-4);
}

TEST(SinkhornTest, SmallLambdaApproachesExactOt) {
  // Identity-friendly cost: exact OT matches the diagonal assignment.
  Matrix c{{0.0, 1.0}, {1.0, 0.0}};
  SinkhornSolution s = SolveSinkhorn(c, Opts(0.01, 2000));
  EXPECT_NEAR(s.transport_cost, 0.0, 1e-3);
  EXPECT_NEAR(s.plan(0, 0), 0.5, 1e-3);
  EXPECT_NEAR(s.plan(1, 1), 0.5, 1e-3);
}

TEST(SinkhornTest, PaperEntropyConvention) {
  // Self-transport of two atoms at distance far apart: plan = diag(1/2),
  // cost 0, plain entropy Σ P log P = 2·(1/2)log(1/2) = −log 2, so
  // OT_λ = −λ log 2 (matches Example 1's λ[q log q + (1−q)log(1−q)] shape).
  Matrix x{{0.0}, {10.0}};
  Matrix c = PairwiseSquaredDistances(x, x);
  const double lambda = 0.5;
  SinkhornSolution s = SolveSinkhorn(c, Opts(lambda, 2000));
  EXPECT_NEAR(s.transport_cost, 0.0, 1e-6);
  EXPECT_NEAR(s.reg_value, -lambda * std::log(2.0), 1e-6);
}

TEST(SinkhornTest, ValueIncreasesWithCostScale) {
  Rng rng(4);
  Matrix c = rng.UniformMatrix(6, 6, 0.5, 1.5);
  const double v1 = SolveSinkhorn(c, Opts(0.3)).transport_cost;
  const double v2 = SolveSinkhorn(MulScalar(c, 2.0), Opts(0.3)).transport_cost;
  EXPECT_GT(v2, v1);
}

TEST(SinkhornTest, SymmetricCostGivesSymmetricSelfPlan) {
  Rng rng(5);
  Matrix x = rng.NormalMatrix(6, 3);
  Matrix c = PairwiseSquaredDistances(x, x);
  SinkhornSolution s = SolveSinkhorn(c, Opts(0.5, 5000));
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(s.plan(i, j), s.plan(j, i), 1e-4);
}

TEST(MaskedCostTest, MatchesDefinition) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix ma{{1.0, 0.0}, {1.0, 1.0}};
  Matrix b{{5.0, 6.0}};
  Matrix mb{{0.0, 1.0}};
  Matrix c = MaskedCostMatrix(a, ma, b, mb);
  // C[0][0] = ||(1,0) − (0,6)||² = 1 + 36 = 37.
  EXPECT_NEAR(c(0, 0), 37.0, 1e-12);
  // C[1][0] = ||(3,4) − (0,6)||² = 9 + 4 = 13.
  EXPECT_NEAR(c(1, 0), 13.0, 1e-12);
}

TEST(MaskedCostTest, FullMasksReduceToPlainDistances) {
  Rng rng(6);
  Matrix a = rng.NormalMatrix(4, 3);
  Matrix b = rng.NormalMatrix(5, 3);
  Matrix ones_a = Matrix::Ones(4, 3), ones_b = Matrix::Ones(5, 3);
  EXPECT_TRUE(MaskedCostMatrix(a, ones_a, b, ones_b)
                  .AllClose(PairwiseSquaredDistances(a, b), 1e-9));
}

TEST(MaskedCostTest, MaskedCoordinatesIgnored) {
  // Changing a masked-out coordinate must not change the cost.
  Matrix a{{1.0, 99.0}};
  Matrix ma{{1.0, 0.0}};
  Matrix b{{2.0, 3.0}};
  Matrix mb{{1.0, 1.0}};
  Matrix c1 = MaskedCostMatrix(a, ma, b, mb);
  a(0, 1) = -1234.0;
  Matrix c2 = MaskedCostMatrix(a, ma, b, mb);
  EXPECT_NEAR(c1(0, 0), c2(0, 0), 1e-12);
}

uint64_t Absorptions() {
  return obs::Registry::Global().Snapshot().CounterOr("sinkhorn.absorptions");
}

// Row and column sums of `plan` against uniform marginals.
void ExpectUniformMarginals(const Matrix& plan, double tol) {
  const size_t n = plan.rows(), m = plan.cols();
  for (size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < m; ++j) row += plan(i, j);
    EXPECT_NEAR(row, 1.0 / n, tol) << "row " << i;
  }
  for (size_t j = 0; j < m; ++j) {
    double col = 0.0;
    for (size_t i = 0; i < n; ++i) col += plan(i, j);
    EXPECT_NEAR(col, 1.0 / m, tol) << "col " << j;
  }
}

// At the DIM weight λ = 130 on a 128-row masked batch, the Gibbs kernel
// lies in [exp(-d/λ), 1]: the solve needs no absorption and converges in
// two iterations.
TEST(SinkhornAbsorptionTest, NoneAtDimShape) {
  Rng rng(13);
  for (const size_t d : {9u, 64u}) {
    const Matrix x = rng.UniformMatrix(128, d, 0.0, 1.0);
    const Matrix xbar = rng.UniformMatrix(128, d, 0.0, 1.0);
    const Matrix m = rng.BernoulliMatrix(128, d, 0.8);
    SinkhornOptions opts;
    opts.lambda = 130.0;
    opts.max_iters = 100;
    opts.tol = 1e-7;
    const uint64_t before = Absorptions();
    const SinkhornSolution s = SolveSinkhornMasked(xbar, m, x, m, opts);
    EXPECT_EQ(Absorptions() - before, 0u) << "d=" << d;
    EXPECT_EQ(s.iters, 2) << "d=" << d;
    EXPECT_TRUE(s.converged);
  }
}

// Small λ: once costs/λ pass exp's range the solve must absorb scalings
// into the log potentials. Adding a constant k to every cost leaves the
// plan unchanged and moves OT_λ by exactly k (the plan has mass 1), while
// it scales every Gibbs-kernel entry by exp(-k/λ); with k/λ in the
// thousands only absorption can solve the shifted problem, and it must
// reproduce the unshifted solve.
void ExpectShiftInvariantWithAbsorption(const Matrix& cost, double shift,
                                        const SinkhornOptions& opts) {
  const SinkhornSolution base = SolveSinkhorn(cost, opts);
  const uint64_t before = Absorptions();
  const SinkhornSolution s = SolveSinkhorn(AddScalar(cost, shift), opts);
  EXPECT_GT(Absorptions() - before, 0u);
  ASSERT_TRUE(base.converged);
  EXPECT_TRUE(s.converged);
  EXPECT_TRUE(std::isfinite(s.reg_value));
  for (const double f : s.f) EXPECT_TRUE(std::isfinite(f));
  for (const double g : s.g) EXPECT_TRUE(std::isfinite(g));
  ExpectUniformMarginals(s.plan, 1e-8);
  EXPECT_TRUE(s.plan.AllClose(base.plan, 1e-12));
  EXPECT_NEAR(s.reg_value, base.reg_value + shift, 1e-9 * (1.0 + shift));
}

// λ = 1e-3 on the masked 10×3 batch of
// RobustnessTest.MsDivergenceTinyLambdaStaysFinite.
TEST(SinkhornAbsorptionTest, FiresAtTinyLambdaAndKeepsMarginals) {
  Rng rng(8);
  const Matrix x = rng.UniformMatrix(10, 3, 0, 1);
  const Matrix xbar = rng.UniformMatrix(10, 3, 0, 1);
  const Matrix m = rng.BernoulliMatrix(10, 3, 0.7);
  SinkhornOptions opts;
  opts.lambda = 1e-3;
  opts.max_iters = 500;
  // The cross solve itself absorbs; it stays finite with exact row sums
  // (it needs far more than 500 iterations to meet the column marginals).
  const uint64_t before = Absorptions();
  const SinkhornSolution cross = SolveSinkhornMasked(xbar, m, x, m, opts);
  EXPECT_GT(Absorptions() - before, 0u);
  EXPECT_TRUE(std::isfinite(cross.reg_value));
  for (size_t i = 0; i < 10; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < 10; ++j) row += cross.plan(i, j);
    EXPECT_NEAR(row, 0.1, 1e-9 * 1.1);
  }
  ExpectShiftInvariantWithAbsorption(MaskedCostMatrix(xbar, m, xbar, m), 3.0,
                                     opts);
}

// The RRSI weight λ = 0.05 on a 128×64 cost with entries up to 64: 64
// points and, for each, two noisy copies among the 128, shifted by 40.
TEST(SinkhornAbsorptionTest, FiresAtRrsiLambdaAndKeepsMarginals) {
  Rng rng(14);
  const Matrix b = rng.UniformMatrix(64, 64, 0.0, 1.0);
  Matrix a(128, 64);
  for (size_t i = 0; i < 128; ++i) {
    for (size_t k = 0; k < 64; ++k) {
      a(i, k) = b(i % 64, k) + rng.Normal(0.0, 0.01);
    }
  }
  const Matrix cost = PairwiseSquaredDistances(a, b);
  EXPECT_LT(MaxValue(AddScalar(cost, 40.0)), 64.0);
  ExpectShiftInvariantWithAbsorption(cost, 40.0, Opts(0.05, 2000));
}

bool SameBytes(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool SameBytes(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// SolveSinkhornSelf builds its first Gibbs kernel from one triangle of the
// cost; it must equal SolveSinkhorn on the same cost byte for byte, at the
// DIM weight and at a λ where absorptions rebuild the full kernel, at
// 1/2/4 threads. With a zero diagonal the scalings of a uniform self solve
// stay within [1/n, n] and never absorb. The small-λ points are a cluster
// of width 6 around 1e8 in every coordinate: there the norm kernel and the
// ascending dot round differently, so some diagonal costs are a few ulps
// of the norms (multiples of 16) and the off-diagonal costs are of the
// same size. Over λ = 1e-2 such a column of the Gibbs kernel underflows,
// which forces an absorption, and the rebuilt kernel holds off-diagonal
// entries that differ across the diagonal (fs ≠ gs), so building it from
// one triangle would change the plan.
TEST(SinkhornSelfSolve, MatchesSolveSinkhornOnSameCostBitExact) {
  const int saved_threads = runtime::NumThreads();
  Rng rng(30);
  for (const size_t n : {1u, 7u, 131u}) {
    for (const double lambda : {130.0, 1e-2}) {
      SCOPED_TRACE(testing::Message() << n << "x" << n << " lambda="
                                      << lambda);
      const Matrix x = lambda < 1.0
                           ? AddScalar(rng.UniformMatrix(n, 9, -3.0, 3.0), 1e8)
                           : rng.UniformMatrix(n, 9, -2.0, 2.0);
      const SinkhornOptions opts = Opts(lambda, 300);
      for (const int threads : {1, 2, 4}) {
        runtime::SetNumThreads(threads);
        const SinkhornSolution full =
            SolveSinkhorn(PairwiseSquaredDistances(x, x), opts);
        const uint64_t before = Absorptions();
        const SinkhornSolution self = SolveSinkhornSelf(x, opts);
        if (lambda < 1.0 && n > 1) {
          EXPECT_GT(Absorptions() - before, 0u) << threads << " threads";
        }
        ASSERT_TRUE(self.plan.SameShape(full.plan));
        EXPECT_EQ(std::memcmp(self.plan.data(), full.plan.data(),
                              full.plan.size() * sizeof(double)),
                  0)
            << threads << " threads";
        EXPECT_TRUE(SameBytes(self.f, full.f)) << threads << " threads";
        EXPECT_TRUE(SameBytes(self.g, full.g)) << threads << " threads";
        EXPECT_TRUE(SameBytes(self.reg_value, full.reg_value));
        EXPECT_TRUE(SameBytes(self.transport_cost, full.transport_cost));
        EXPECT_EQ(self.iters, full.iters);
        EXPECT_EQ(self.converged, full.converged);
      }
    }
  }
  runtime::SetNumThreads(saved_threads);
}

// Occurrences of a span name in a Chrome trace written by obs::WriteTrace.
int CountTraceSpans(const std::string& json, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\"";
  int count = 0;
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    ++count;
  }
  return count;
}

// Work counters must be a pure function of the input, never of the thread
// count: the runtime chunks deterministically, so the solves/iterations the
// instrumentation records at --threads=1 and --threads=N are identical.
// Wall-clock counters (plan_recovery_ns) are deliberately excluded. The
// traced training divergence must also name its masked cost builds and its
// envelope gradient, the parts of dim.forward outside the solver spans.
TEST(SinkhornTest, MetricsDeterministicAcrossThreadCounts) {
  auto run_and_snapshot = [](int threads) {
    runtime::SetNumThreads(threads);
    obs::Registry::Global().Reset();
    obs::ClearTrace();
    obs::SetTraceEnabled(true);
    Rng rng(42);
    Matrix x = rng.UniformMatrix(120, 6, 0.0, 1.0);
    Matrix cost = PairwiseSquaredDistances(x, x);
    const SinkhornOptions opts = Opts(1.0, 60);
    for (int rep = 0; rep < 3; ++rep) {
      SinkhornSolution s = SolveSinkhorn(cost, opts);
      EXPECT_GT(s.iters, 0);
    }
    const Matrix m = rng.BernoulliMatrix(32, 6, 0.8);
    (void)MsDivergenceForTraining(x.RowRange(0, 32), x.RowRange(32, 64), m,
                                  opts);
    obs::SetTraceEnabled(false);
    return obs::Registry::Global().Snapshot();
  };

  obs::MetricsSnapshot one = run_and_snapshot(1);
  obs::MetricsSnapshot four = run_and_snapshot(4);
  EXPECT_GT(four.CounterOr("sinkhorn.solves"), 0u);
  EXPECT_GT(obs::TraceSpanCount(), 0u);
  const std::string path =
      ::testing::TempDir() + "scis_sinkhorn_trace_test.json";
  ASSERT_TRUE(obs::WriteTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(CountTraceSpans(buf.str(), "ot.masked_cost"), 2);
  EXPECT_EQ(CountTraceSpans(buf.str(), "ot.envelope_grad"), 1);
  for (const char* name : {"sinkhorn.solves", "sinkhorn.iterations",
                           "sinkhorn.converged_solves"}) {
    EXPECT_EQ(one.CounterOr(name), four.CounterOr(name)) << name;
  }
  const auto& h1 = one.histograms.at("sinkhorn.iters_per_solve");
  const auto& h4 = four.histograms.at("sinkhorn.iters_per_solve");
  EXPECT_EQ(h1.counts, h4.counts);
  EXPECT_EQ(h1.count, h4.count);

  obs::ClearTrace();
  obs::Registry::Global().Reset();
  runtime::SetNumThreads(0);  // restore the env/hardware default
}

// Tier-1 slice of the edge-case property (the nightly suite runs it long),
// plus replay of every seed that ever exposed a bug.
TEST(SinkhornEdgeFuzzTest, EdgeCaseFuzz) {
  testkit::PropertyOptions opts;
  opts.iterations = 25;  // every scenario × both λ branches
  CHECK_PROPERTY("sinkhorn_edge_cases", SinkhornEdgeCaseProperty, opts);
}

TEST(SinkhornEdgeFuzzTest, EdgeCaseCorpusReplays) {
  const std::vector<uint64_t> seeds = LoadSeedCorpus(
      std::string(SCIS_TEST_CORPUS_DIR) + "/sinkhorn_edge_seeds.txt");
  ASSERT_FALSE(seeds.empty()) << "corpus file missing or empty";
  for (const uint64_t seed : seeds) {
    const testkit::PropertyStatus status = SinkhornEdgeCaseProperty(seed);
    EXPECT_TRUE(status.ok)
        << "corpus seed " << seed << " regressed: " << status.message;
  }
}

}  // namespace
}  // namespace scis
