#include <gtest/gtest.h>

#include <cmath>

#include "core/sse.h"
#include "data/missingness.h"
#include "data/normalizer.h"
#include "data/sampler.h"
#include "models/gain_imputer.h"
#include "obs/metrics.h"

namespace scis {
namespace {

Dataset MakeData(size_t n, uint64_t seed = 31) {
  Rng rng(seed);
  Matrix x(n, 3);
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Uniform();
    x(i, 0) = z;
    x(i, 1) = 1 - z + rng.Normal(0, 0.05);
    x(i, 2) = 0.5 + 0.3 * z + rng.Normal(0, 0.05);
  }
  Dataset inc = InjectMcar(Dataset::Complete("sse", x), 0.3, rng);
  MinMaxNormalizer norm;
  return norm.FitTransform(inc);
}

// A small DIM-trained GAIN to probe.
std::unique_ptr<GainImputer> TrainedModel(const Dataset& initial) {
  GainImputerOptions go;
  go.deep.epochs = 1;
  auto gain = std::make_unique<GainImputer>(go);
  DimOptions dopts;
  dopts.epochs = 15;
  dopts.batch_size = 64;
  dopts.lambda = 1.0;
  dopts.sinkhorn_iters = 40;
  dopts.use_critic = false;
  DimTrainer dim(dopts);
  EXPECT_TRUE(dim.Train(*gain, initial).ok());
  return gain;
}

SseOptions FastSse() {
  SseOptions o;
  o.k = 8;
  o.curvature_batches = 4;
  o.curvature_batch_size = 64;
  o.lambda = 1.0;
  return o;
}

TEST(SseMathTest, ZetaFormula) {
  // ζ(λ) = e^{6/λ}(1 + 1/λ^{⌊d/2⌋})².
  EXPECT_NEAR(SseZeta(130.0, 9),
              std::exp(6.0 / 130.0) *
                  std::pow(1.0 + std::pow(130.0, -4.0), 2.0),
              1e-12);
  // Small λ inflates the constant (harder estimation), monotone decrease.
  EXPECT_GT(SseZeta(0.5, 4), SseZeta(5.0, 4));
  EXPECT_GT(SseZeta(5.0, 4), SseZeta(130.0, 4));
}

TEST(SseMathTest, ZetaDimensionDependence) {
  // Larger d shrinks the 1/λ^{⌊d/2⌋} correction (λ > 1).
  EXPECT_GT(SseZeta(2.0, 2), SseZeta(2.0, 10));
}

TEST(SseMathTest, ThresholdClampedToOne) {
  // §VI constants: (1-0.05)/(1-0.01) + sqrt(-log 0.01 / 40) ≈ 1.30 -> 1.
  EXPECT_DOUBLE_EQ(SseThreshold(0.05, 0.01, 20), 1.0);
}

TEST(SseMathTest, ThresholdBelowOneForLargeK) {
  const double t = SseThreshold(0.05, 0.01, 5000);
  EXPECT_LT(t, 1.0);
  EXPECT_GT(t, 0.9);
  // Monotone: more samples -> smaller Hoeffding correction.
  EXPECT_LT(SseThreshold(0.05, 0.01, 20000), SseThreshold(0.05, 0.01, 5000));
}

TEST(SseTest, PrepareComputesPositiveCurvature) {
  Dataset data = MakeData(400);
  Dataset initial = data.GatherRows(Rng(1).SampleWithoutReplacement(400, 128));
  auto model = TrainedModel(initial);
  SseEstimator sse(FastSse());
  ASSERT_TRUE(sse.Prepare(*model, initial).ok());
  ASSERT_EQ(sse.h_diag().size(), model->generator_params().NumScalars());
  for (double h : sse.h_diag()) EXPECT_GT(h, 0.0);
}

TEST(SseTest, ProbabilityMonotoneInN) {
  Dataset data = MakeData(2000);
  Rng rng(2);
  Dataset initial = data.GatherRows(rng.SampleWithoutReplacement(2000, 200));
  Dataset validation =
      data.GatherRows(rng.SampleWithoutReplacement(2000, 150));
  auto model = TrainedModel(initial);
  SseOptions o = FastSse();
  o.epsilon = 0.02;
  o.eta_scale = 0.05;
  SseEstimator sse(o);
  ASSERT_TRUE(sse.Prepare(*model, initial).ok());
  double prev = -1.0;
  for (size_t n : {200u, 500u, 1000u, 2000u}) {
    const double p = sse.ProbabilityAt(*model, validation, 200, n, 2000);
    EXPECT_GE(p, prev) << "P(D<=eps) must not decrease with n (CRN)";
    prev = p;
  }
  // At n = N the sampled pair collapses: D = 0 <= eps always.
  EXPECT_DOUBLE_EQ(
      sse.ProbabilityAt(*model, validation, 200, 2000, 2000), 1.0);
}

TEST(SseTest, HugeEpsilonGivesNStarEqualN0) {
  Dataset data = MakeData(1000);
  Rng rng(3);
  Dataset initial = data.GatherRows(rng.SampleWithoutReplacement(1000, 150));
  Dataset validation =
      data.GatherRows(rng.SampleWithoutReplacement(1000, 100));
  auto model = TrainedModel(initial);
  SseOptions o = FastSse();
  o.epsilon = 10.0;  // any model difference is tolerable
  SseEstimator sse(o);
  ASSERT_TRUE(sse.Prepare(*model, initial).ok());
  auto res = sse.EstimateMinimumSize(*model, 1000, validation, 150);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->n_star, 150u);
  EXPECT_DOUBLE_EQ(res->probability_at_n_star, 1.0);
}

TEST(SseTest, TinyEpsilonPushesNStarTowardN) {
  Dataset data = MakeData(1000);
  Rng rng(4);
  Dataset initial = data.GatherRows(rng.SampleWithoutReplacement(1000, 150));
  Dataset validation =
      data.GatherRows(rng.SampleWithoutReplacement(1000, 100));
  auto model = TrainedModel(initial);
  SseOptions o = FastSse();
  o.epsilon = 1e-8;
  o.eta_scale = 10.0;  // large parameter variance
  SseEstimator sse(o);
  ASSERT_TRUE(sse.Prepare(*model, initial).ok());
  auto res = sse.EstimateMinimumSize(*model, 1000, validation, 150);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->n_star, 900u);
}

TEST(SseTest, NStarWithinBounds) {
  Dataset data = MakeData(1500);
  Rng rng(5);
  Dataset initial = data.GatherRows(rng.SampleWithoutReplacement(1500, 200));
  Dataset validation =
      data.GatherRows(rng.SampleWithoutReplacement(1500, 120));
  auto model = TrainedModel(initial);
  SseOptions o = FastSse();
  o.epsilon = 0.01;
  o.eta_scale = 0.05;
  SseEstimator sse(o);
  ASSERT_TRUE(sse.Prepare(*model, initial).ok());
  auto res = sse.EstimateMinimumSize(*model, 1500, validation, 200);
  ASSERT_TRUE(res.ok());
  EXPECT_GE(res->n_star, 200u);
  EXPECT_LE(res->n_star, 1500u);
  EXPECT_GT(res->search_steps, 0);
  EXPECT_GE(res->sse_seconds, 0.0);
}

TEST(SseTest, ParametersRestoredAfterEstimation) {
  Dataset data = MakeData(800);
  Rng rng(6);
  Dataset initial = data.GatherRows(rng.SampleWithoutReplacement(800, 150));
  Dataset validation = data.GatherRows(rng.SampleWithoutReplacement(800, 80));
  auto model = TrainedModel(initial);
  std::vector<double> theta_before = model->generator_params().ToFlat();
  SseOptions o = FastSse();
  o.epsilon = 0.02;
  SseEstimator sse(o);
  ASSERT_TRUE(sse.Prepare(*model, initial).ok());
  ASSERT_TRUE(sse.EstimateMinimumSize(*model, 800, validation, 150).ok());
  std::vector<double> theta_after = model->generator_params().ToFlat();
  ASSERT_EQ(theta_before.size(), theta_after.size());
  for (size_t i = 0; i < theta_before.size(); ++i) {
    EXPECT_DOUBLE_EQ(theta_before[i], theta_after[i]);
  }
}

TEST(SseTest, EstimateRequiresPrepare) {
  Dataset data = MakeData(600);
  auto model = TrainedModel(data.GatherRows({0, 1, 2, 3, 4, 5, 6, 7}));
  SseEstimator sse(FastSse());
  Dataset validation = data.GatherRows({0, 1, 2});
  EXPECT_FALSE(sse.EstimateMinimumSize(*model, 600, validation, 8).ok());
}

TEST(SseTest, InvalidN0Rejected) {
  Dataset data = MakeData(600);
  Rng rng(7);
  Dataset initial = data.GatherRows(rng.SampleWithoutReplacement(600, 100));
  auto model = TrainedModel(initial);
  SseEstimator sse(FastSse());
  ASSERT_TRUE(sse.Prepare(*model, initial).ok());
  Dataset validation = data.GatherRows({0, 1, 2});
  EXPECT_FALSE(sse.EstimateMinimumSize(*model, 600, validation, 0).ok());
  EXPECT_FALSE(sse.EstimateMinimumSize(*model, 600, validation, 601).ok());
}

// The search as it ran before probes could stop early: full counts from the
// public ProbabilityAt, the same bisection, the same final full count.
SseResult ReferenceSearch(SseEstimator& sse, GenerativeImputer& model,
                          size_t data_size, const Dataset& validation,
                          size_t n0, double threshold) {
  SseResult res;
  auto satisfied = [&](size_t n) {
    ++res.search_steps;
    return sse.ProbabilityAt(model, validation, n0, n, data_size) >=
           threshold;
  };
  size_t lo = n0, hi = data_size;
  if (satisfied(lo)) {
    res.n_star = lo;
  } else {
    while (hi - lo > std::max<size_t>(1, data_size / 1024)) {
      const size_t mid = lo + (hi - lo) / 2;
      if (satisfied(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    res.n_star = hi;
  }
  res.probability_at_n_star =
      sse.ProbabilityAt(model, validation, n0, res.n_star, data_size);
  return res;
}

// Early decisions change how many pairs a probe evaluates, never what the
// search decides: the result equals the full-count reference search, at the
// §VI threshold (clamped to 1) and at two below 1.
TEST(SseTest, EarlyDecisionsMatchFullCountSearch) {
  Dataset data = MakeData(1500);
  Rng rng(5);
  Dataset initial = data.GatherRows(rng.SampleWithoutReplacement(1500, 200));
  Dataset validation =
      data.GatherRows(rng.SampleWithoutReplacement(1500, 120));
  auto model = TrainedModel(initial);
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* evals = reg.GetCounter("sse.model_evals");
  obs::Counter* probes = reg.GetCounter("sse.probes");

  // ε and η put n* well inside (n0, N), so the search takes both accepting
  // and rejecting steps.
  SseOptions at_one = FastSse();
  at_one.epsilon = 0.1;
  at_one.eta_scale = 1e-4;
  SseOptions below_one = at_one;
  below_one.k = 24;
  below_one.alpha = 0.6;
  below_one.beta = 0.5;
  SseOptions stops_early = below_one;
  stops_early.k = 16;
  stops_early.alpha = 0.65;
  // n* reuses the count of the step that accepted it when that step ran all
  // k pairs, and gets one more probe otherwise. At threshold 1 acceptance
  // needs every pair to pass, so it always ran them all; at 0.92 it did
  // here because its count reached the threshold only at the last pair,
  // while with `stops_early` the accepting step at n* stops short of k.
  const struct {
    SseOptions o;
    uint64_t final_probes;
  } cases[] = {{at_one, 0}, {below_one, 0}, {stops_early, 1}};
  for (const auto& [o, final_probes] : cases) {
    const double threshold = SseThreshold(o.alpha, o.beta, o.k);
    SseEstimator fast(o), ref(o);
    ASSERT_TRUE(fast.Prepare(*model, initial).ok());
    ASSERT_TRUE(ref.Prepare(*model, initial).ok());

    const uint64_t evals0 = evals->value(), probes0 = probes->value();
    Result<SseResult> res =
        fast.EstimateMinimumSize(*model, 1500, validation, 200);
    ASSERT_TRUE(res.ok());
    const uint64_t fast_evals = evals->value() - evals0;
    const uint64_t fast_probes = probes->value() - probes0;
    EXPECT_EQ(reg.GetGauge("sse.confidence")->value(),
              res->probability_at_n_star);

    const uint64_t evals1 = evals->value();
    const SseResult want =
        ReferenceSearch(ref, *model, 1500, validation, 200, threshold);
    const uint64_t ref_evals = evals->value() - evals1;

    SCOPED_TRACE(threshold);
    EXPECT_EQ(res->threshold, threshold);
    EXPECT_EQ(res->n_star, want.n_star);
    EXPECT_EQ(res->search_steps, want.search_steps);
    EXPECT_EQ(res->probability_at_n_star, want.probability_at_n_star);
    EXPECT_GT(res->n_star, 400u);
    EXPECT_LT(res->n_star, 1200u);
    // Every probe counts once; the reference runs all k pairs per step and
    // once more at n*.
    EXPECT_EQ(fast_probes,
              static_cast<uint64_t>(res->search_steps) + final_probes);
    EXPECT_EQ(ref_evals,
              static_cast<uint64_t>(res->search_steps + 1) *
                  static_cast<uint64_t>(o.k));
    EXPECT_LT(fast_evals, ref_evals);
  }
  EXPECT_EQ(SseThreshold(at_one.alpha, at_one.beta, at_one.k), 1.0);
  EXPECT_LT(SseThreshold(below_one.alpha, below_one.beta, below_one.k), 1.0);
  EXPECT_LT(SseThreshold(stops_early.alpha, stops_early.beta, stops_early.k),
            1.0);
}

}  // namespace
}  // namespace scis
