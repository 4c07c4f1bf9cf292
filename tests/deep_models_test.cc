#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/missingness.h"
#include "data/normalizer.h"
#include "eval/metrics.h"
#include "models/gain_imputer.h"
#include "models/ginn_imputer.h"
#include "models/mean_imputer.h"
#include "models/midae_imputer.h"
#include "models/mlp_imputer.h"
#include "models/rrsi_imputer.h"
#include "models/vae_imputers.h"
#include "obs/metrics.h"
#include "tensor/matrix_ops.h"
#include "testkit/golden.h"

namespace scis {
namespace {

struct Bench {
  Dataset train;
  Matrix truth;
  Matrix eval_mask;
};

Bench MakeBench(size_t n = 300, double miss = 0.25, uint64_t seed = 11) {
  Rng rng(seed);
  Matrix x(n, 4);
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Uniform();
    x(i, 0) = z + rng.Normal(0, 0.03);
    x(i, 1) = 1.0 - z + rng.Normal(0, 0.03);
    x(i, 2) = z * z + rng.Normal(0, 0.03);
    x(i, 3) = 0.5 * z + 0.25 + rng.Normal(0, 0.03);
  }
  Dataset complete = Dataset::Complete("bench", x);
  Dataset incomplete = InjectMcar(complete, miss, rng);
  HoldOut h = MakeHoldOut(incomplete, 0.2, rng);
  MinMaxNormalizer norm;
  Bench b;
  b.train = norm.FitTransform(h.train);
  b.eval_mask = h.eval_mask;
  b.truth = Matrix(n, 4);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      if (h.eval_mask(i, j) == 1.0) {
        b.truth(i, j) =
            (h.truth(i, j) - norm.lo()[j]) / (norm.hi()[j] - norm.lo()[j]);
      }
    }
  }
  return b;
}

double MeanRmse(const Bench& b) {
  MeanImputer mean;
  EXPECT_TRUE(mean.Fit(b.train).ok());
  return MaskedRmse(mean.Impute(b.train), b.truth, b.eval_mask);
}

DeepOptions FastDeep(int epochs = 30) {
  DeepOptions o;
  o.epochs = epochs;
  o.batch_size = 64;
  o.dropout = 0.2;  // lighter than the paper's 0.5 for tiny test nets
  return o;
}

TEST(MlpImputerTest, LearnsCorrelations) {
  Bench b = MakeBench();
  MlpImputerOptions o;
  o.deep = FastDeep(40);
  MlpImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  const double rmse = MaskedRmse(imp.Impute(b.train), b.truth, b.eval_mask);
  EXPECT_LT(rmse, 0.85 * MeanRmse(b));
}

TEST(MlpImputerTest, OutputsInUnitInterval) {
  Bench b = MakeBench(100);
  MlpImputerOptions o;
  o.deep = FastDeep(3);
  MlpImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  Matrix rec = imp.Reconstruct(b.train);
  for (size_t k = 0; k < rec.size(); ++k) {
    EXPECT_GE(rec.data()[k], 0.0);
    EXPECT_LE(rec.data()[k], 1.0);
  }
}

TEST(MlpImputerTest, TrainingLossDecreases) {
  Bench b = MakeBench();
  MlpImputerOptions o1;
  o1.deep = FastDeep(1);
  MlpImputer one(o1);
  ASSERT_TRUE(one.Fit(b.train).ok());
  const double loss_after_1 = one.last_epoch_loss();
  MlpImputerOptions o2;
  o2.deep = FastDeep(30);
  MlpImputer thirty(o2);
  ASSERT_TRUE(thirty.Fit(b.train).ok());
  EXPECT_LT(thirty.last_epoch_loss(), loss_after_1);
}

TEST(RrsiImputerTest, ImprovesOverMeanInit) {
  Bench b = MakeBench(256, 0.3);
  RrsiImputerOptions o;
  o.iterations = 200;
  o.batch_size = 64;
  RrsiImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  const double rmse = MaskedRmse(imp.Impute(b.train), b.truth, b.eval_mask);
  EXPECT_LT(rmse, MeanRmse(b));
}

TEST(RrsiImputerTest, TransductiveFallback) {
  Bench b = MakeBench(128);
  RrsiImputerOptions o;
  o.iterations = 10;
  RrsiImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  // Unseen data (different mask): falls back to mean fill, still completes.
  Bench other = MakeBench(64, 0.25, 99);
  Matrix rec = imp.Reconstruct(other.train);
  EXPECT_EQ(rec.rows(), 64u);
}

TEST(MidaeImputerTest, MultipleImputationAveragesPasses) {
  Bench b = MakeBench(200);
  MidaeImputerOptions o;
  o.deep = FastDeep(20);
  o.num_imputations = 3;
  MidaeImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  const double rmse = MaskedRmse(imp.Impute(b.train), b.truth, b.eval_mask);
  EXPECT_LT(rmse, 1.1 * MeanRmse(b));  // sanity: not catastrophically bad
}

TEST(MidaeImputerTest, SeedVariesMissingCellsOnly) {
  Rng rng(4);
  Matrix x = rng.UniformMatrix(100, 3, 0, 1);
  Matrix mask = rng.BernoulliMatrix(100, 3, 0.7);
  Dataset data("mi", Mul(x, mask), mask, {});
  auto impute = [&](uint64_t seed) {
    MidaeImputerOptions o;
    o.deep.epochs = 3;
    o.deep.seed = seed;
    MidaeImputer imp(o);
    EXPECT_TRUE(imp.Fit(data).ok());
    return imp.Impute(data);
  };
  const Matrix a = impute(1), b = impute(7920);
  size_t differing = 0;
  for (size_t k = 0; k < mask.size(); ++k) {
    if (mask.data()[k] == 1.0) {
      // Observed cells are copied through, whatever the seed.
      EXPECT_EQ(a.data()[k], b.data()[k]);
    } else if (a.data()[k] != b.data()[k]) {
      ++differing;
    }
  }
  // Missing cells follow the seed: the completions are stochastic.
  EXPECT_GT(differing, 0u);
}

TEST(VaeiImputerTest, TrainsAndReconstructs) {
  Bench b = MakeBench(200);
  VaeImputerOptions o;
  o.deep = FastDeep(30);
  VaeiImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  Matrix rec = imp.Reconstruct(b.train);
  for (size_t k = 0; k < rec.size(); ++k) {
    EXPECT_GE(rec.data()[k], 0.0);
    EXPECT_LE(rec.data()[k], 1.0);
  }
  EXPECT_LT(MaskedRmse(imp.Impute(b.train), b.truth, b.eval_mask),
            1.2 * MeanRmse(b));
}

TEST(MiwaeImputerTest, ImportanceWeightingRuns) {
  Bench b = MakeBench(150);
  MiwaeImputerOptions o;
  o.deep = FastDeep(20);
  o.importance_samples = 3;
  MiwaeImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  Matrix rec = imp.Reconstruct(b.train);
  EXPECT_EQ(rec.rows(), 150u);
  EXPECT_LT(MaskedRmse(imp.Impute(b.train), b.truth, b.eval_mask),
            1.2 * MeanRmse(b));
}

TEST(EddiImputerTest, PartialEncoderHandlesMissingEvidence) {
  Bench b = MakeBench(200, 0.5);  // heavy missingness
  EddiImputerOptions o;
  o.deep = FastDeep(30);
  EddiImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  EXPECT_LT(MaskedRmse(imp.Impute(b.train), b.truth, b.eval_mask),
            1.2 * MeanRmse(b));
}

TEST(HivaeImputerTest, SingleLayerConfigTrains) {
  Bench b = MakeBench(200);
  HivaeImputerOptions o;
  o.deep = FastDeep(30);
  HivaeImputer imp(o);
  ASSERT_TRUE(imp.Fit(b.train).ok());
  EXPECT_LT(MaskedRmse(imp.Impute(b.train), b.truth, b.eval_mask),
            1.2 * MeanRmse(b));
}

TEST(GainImputerTest, AdversarialTrainingBeatsMean) {
  Bench b = MakeBench(300, 0.25);
  GainImputerOptions o;
  o.deep = FastDeep(100);  // the paper's epoch count
  GainImputer gain(o);
  ASSERT_TRUE(gain.Fit(b.train).ok());
  const double rmse = MaskedRmse(gain.Impute(b.train), b.truth, b.eval_mask);
  EXPECT_LT(rmse, 0.9 * MeanRmse(b));
}

TEST(GainImputerTest, ReconstructOnTapeDifferentiable) {
  Bench b = MakeBench(64);
  GainImputerOptions o;
  o.deep = FastDeep(1);
  GainImputer gain(o);
  ASSERT_TRUE(gain.Fit(b.train).ok());
  Tape tape;
  Matrix x = b.train.values().RowRange(0, 32);
  Matrix m = b.train.mask().RowRange(0, 32);
  Var xbar = gain.ReconstructOnTape(tape, x, m, true);
  Var loss = Mean(Square(xbar));
  tape.Backward(loss);
  double gnorm = 0;
  for (const Matrix& g : gain.generator_params().CollectGrads()) {
    gnorm += Dot(g, g);
  }
  EXPECT_GT(gnorm, 0.0);
}

TEST(GainImputerTest, LossesAreTracked) {
  Bench b = MakeBench(128);
  GainImputerOptions o;
  o.deep = FastDeep(2);
  GainImputer gain(o);
  ASSERT_TRUE(gain.Fit(b.train).ok());
  EXPECT_GT(gain.last_d_loss(), 0.0);
  EXPECT_GT(gain.last_g_loss(), 0.0);
}

TEST(GinnImputerTest, GraphGeneratorTrains) {
  Bench b = MakeBench(150, 0.3);
  GinnImputerOptions o;
  // GINN takes one full-batch generator step per epoch, so it needs many
  // more epochs than the mini-batch models to converge.
  o.deep = FastDeep(200);
  o.critic_steps = 2;  // fast test config (paper uses 5)
  GinnImputer ginn(o);
  ASSERT_TRUE(ginn.Fit(b.train).ok());
  const double rmse = MaskedRmse(ginn.Impute(b.train), b.truth, b.eval_mask);
  EXPECT_LT(rmse, 1.1 * MeanRmse(b));
}

TEST(GinnImputerTest, BatchLocalReconstructOnTape) {
  Bench b = MakeBench(96);
  GinnImputerOptions o;
  o.deep = FastDeep(1);
  GinnImputer ginn(o);
  Tape tape;
  Matrix x = b.train.values().RowRange(0, 48);
  Matrix m = b.train.mask().RowRange(0, 48);
  Var xbar = ginn.ReconstructOnTape(tape, x, m, true);
  EXPECT_EQ(xbar.rows(), 48u);
  Var loss = Mean(Square(xbar));
  tape.Backward(loss);
  double gnorm = 0;
  for (const Matrix& g : ginn.generator_params().CollectGrads()) {
    gnorm += Dot(g, g);
  }
  EXPECT_GT(gnorm, 0.0);
}

// Reconstruct and ReconstructOnTape at train=false run one GCN forward over
// the same graph, so SSE may call either.
TEST(GinnImputerTest, ReconstructMatchesTapeForwardBitExact) {
  Bench b = MakeBench(96);
  GinnImputerOptions o;
  o.deep = FastDeep(2);
  o.critic_steps = 1;
  GinnImputer ginn(o);
  ASSERT_TRUE(ginn.Fit(b.train).ok());
  const Matrix direct = ginn.Reconstruct(b.train);
  Tape tape;
  const Matrix taped = ginn.ReconstructOnTape(tape, b.train.values(),
                                              b.train.mask(), false)
                           .value();
  ginn.generator_params().DropBindings();
  ASSERT_EQ(direct.size(), taped.size());
  EXPECT_EQ(std::memcmp(direct.data(), taped.data(),
                        direct.size() * sizeof(double)),
            0);
}

// Reconstruct runs without a tape and leaves no binding behind: reading
// gradients afterwards, without a re-bind, must see every parameter as
// unbound.
TEST(GinnImputerTest, CollectGradsAfterReconstructSeesNoStaleBinding) {
  Bench b = MakeBench(96);
  GinnImputerOptions o;
  o.deep = FastDeep(1);
  o.critic_steps = 1;
  GinnImputer ginn(o);
  ASSERT_TRUE(ginn.Fit(b.train).ok());
  (void)ginn.Reconstruct(b.train);
  const std::vector<Matrix> grads = ginn.generator_params().CollectGrads();
  ASSERT_EQ(grads.size(), ginn.generator_params().size());
  for (const Matrix& g : grads) EXPECT_EQ(FrobeniusNorm(g), 0.0);

  (void)ginn.Reconstruct(b.train);
  std::vector<const Matrix*> views;
  ginn.generator_params().CollectGradsInto(&views);
  for (const Matrix* v : views) EXPECT_EQ(v, nullptr);
}

// The first Reconstruct after Fit of each autoencoder baseline and of GINN
// is pinned byte for byte on a small fixed fixture (the goldens cover GAIN
// only), and imputing runs without a tape: the pool-miss counter does not
// move.
TEST(DeepModelsTest, AutoencoderReconstructIsPinnedAndTapeFree) {
  const Bench b = MakeBench(96);
  const DeepOptions deep = FastDeep(2);
  struct Case {
    std::unique_ptr<Imputer> imp;
    uint64_t digest;
  };
  std::vector<Case> cases;
  {
    VaeImputerOptions o;
    o.deep = deep;
    cases.push_back({std::make_unique<VaeiImputer>(o),
                     0xbb3207b9348bdbeaull});
  }
  {
    MiwaeImputerOptions o;
    o.deep = deep;
    o.importance_samples = 3;
    cases.push_back({std::make_unique<MiwaeImputer>(o),
                     0x78f0ebe26d6ea2f7ull});
  }
  {
    EddiImputerOptions o;
    o.deep = deep;
    cases.push_back({std::make_unique<EddiImputer>(o),
                     0xbd41a7a7c0bc6dcaull});
  }
  {
    HivaeImputerOptions o;
    o.deep = deep;
    cases.push_back({std::make_unique<HivaeImputer>(o),
                     0x935baf3d5c656386ull});
  }
  {
    MidaeImputerOptions o;
    o.deep = deep;
    o.num_imputations = 3;
    cases.push_back({std::make_unique<MidaeImputer>(o),
                     0x295ce2b8a6a03755ull});
  }
  {
    GinnImputerOptions o;
    o.deep = deep;
    o.critic_steps = 1;
    // A row observing nothing keeps only its self loop in the kNN graph.
    cases.push_back({std::make_unique<GinnImputer>(o),
                     0xd319942624411396ull});
  }
  for (Case& c : cases) {
    ASSERT_TRUE(c.imp->Fit(b.train).ok()) << c.imp->name();
    const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
    const Matrix rec = c.imp->Reconstruct(b.train);
    const obs::MetricsSnapshot after = obs::Registry::Global().Snapshot();
    const uint64_t digest = testkit::MatrixDigest(rec);
    EXPECT_EQ(digest, c.digest)
        << c.imp->name() << " digest 0x" << std::hex << digest;
    EXPECT_EQ(after.CounterOr("tape.pool.misses"),
              before.CounterOr("tape.pool.misses"))
        << c.imp->name();
  }
}

TEST(DeepImputersTest, EmptyDatasetRejected) {
  Dataset empty("e", Matrix(0, 3), Matrix(0, 3), NumericColumns(3));
  MlpImputerOptions o;
  MlpImputer imp(o);
  EXPECT_FALSE(imp.Fit(empty).ok());
  GainImputer gain;
  EXPECT_FALSE(gain.Fit(empty).ok());
}

}  // namespace
}  // namespace scis
