// Full continuous-learning loop against a live server: injected drift must
// be detected by the SSE check, retrained at the SSE-chosen n*, and
// hot-swapped while 16 concurrent connections are imputing — with zero
// dropped requests and a bit-identical loop (store replay, n*, confidences,
// post-swap served bytes) at 1, 2, and 4 worker threads.
//
// Mirrors examples/scis_lifecycle (same seeds and SSE calibration); the
// demo narrates the loop, this test pins its determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/dim.h"
#include "data/normalizer.h"
#include "lifecycle/lifecycle.h"
#include "models/gain_imputer.h"
#include "nn/serialize.h"
#include "runtime/runtime.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tensor/rng.h"
#include "testkit/golden.h"

namespace scis {
namespace {

constexpr size_t kCols = 6;
constexpr size_t kTrainRows = 96;
constexpr int kHammerConns = 16;

Matrix TrafficRows(Rng& rng, size_t n, double missing_rate, double shift) {
  Matrix m(n, kCols);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kCols; ++j) {
      const double lo = static_cast<double>(j) + shift;
      const double v = rng.Uniform(lo, lo + 2.0);
      m(i, j) = rng.Bernoulli(missing_rate)
                    ? std::numeric_limits<double>::quiet_NaN()
                    : v;
    }
  }
  return m;
}

Dataset RawToDataset(const Matrix& raw) {
  Matrix values = raw;
  Matrix mask(raw.rows(), raw.cols());
  for (size_t k = 0; k < values.size(); ++k) {
    if (std::isnan(values.data()[k])) {
      values.data()[k] = 0.0;
    } else {
      mask.data()[k] = 1.0;
    }
  }
  return Dataset("lifecycle_loop", std::move(values), std::move(mask),
                 NumericColumns(raw.cols()));
}

CheckpointMeta MakeMeta(const Dataset& raw, const MinMaxNormalizer& norm) {
  CheckpointMeta meta;
  meta.model = "GAIN";
  for (const ColumnMeta& c : raw.columns()) {
    meta.columns.push_back(
        {c.name, static_cast<int>(c.kind), c.num_categories});
  }
  meta.norm_lo = norm.lo();
  meta.norm_hi = norm.hi();
  return meta;
}

struct LoopDigest {
  double conf_baseline = -1.0, conf_drift = -1.0, conf_after = -1.0;
  size_t n_star = 0;
  uint64_t generation = 0;
  uint64_t store_digest = 0;
  uint64_t served_digest = 0;
};

// One full loop at the given thread count; gtest assertions fire inline on
// any non-deterministic or lossy step (ASSERTs need a void return).
void RunLoop(int threads, const std::string& dir, LoopDigest* digest_out) {
  LoopDigest& out = *digest_out;
  runtime::SetNumThreads(threads);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Rng rng(11);
  const Matrix raw0 = TrafficRows(rng, kTrainRows, 0.25, 0.0);
  const Dataset raw_ds = RawToDataset(raw0);
  MinMaxNormalizer norm;
  const Dataset train = norm.FitTransform(raw_ds);
  GainImputerOptions gopts;
  gopts.deep.seed = 5;
  GainImputer gain(gopts);
  DimOptions dopts;
  dopts.epochs = 6;
  dopts.seed = 13;
  DimTrainer offline(dopts);
  EXPECT_TRUE(offline.Train(gain, train).ok());
  const std::string ckpt_path = dir + "/model.bin";
  EXPECT_TRUE(
      SaveCheckpoint(gain.generator_params(), MakeMeta(raw_ds, norm), ckpt_path)
          .ok());

  Result<std::shared_ptr<const serve::ImputationEngine>> engine =
      serve::ImputationEngine::Load(ckpt_path);
  EXPECT_TRUE(engine.ok());
  Result<Checkpoint> ckpt = LoadCheckpoint(ckpt_path);
  EXPECT_TRUE(ckpt.ok());

  auto server_holder = std::make_shared<serve::ImputationServer*>(nullptr);
  std::vector<std::thread> hammer;
  std::atomic<uint64_t> hammer_failures{0};
  Rng hammer_rng(77);
  const Matrix hammer_batch = TrafficRows(hammer_rng, 1, 0.5, 0.0);
  auto join_hammer = [&hammer] {
    for (std::thread& t : hammer) t.join();
    hammer.clear();
  };
  auto start_hammer = [&] {
    for (int c = 0; c < kHammerConns; ++c) {
      hammer.emplace_back([server_holder, &hammer_batch, &hammer_failures] {
        Result<std::unique_ptr<serve::ImputationClient>> cl =
            serve::ImputationClient::Connect("127.0.0.1",
                                             (*server_holder)->port());
        if (!cl.ok() || !(*cl)->Impute(hammer_batch).ok()) {
          hammer_failures.fetch_add(1);
        }
      });
    }
  };

  lifecycle::LifecycleOptions lopts;
  lopts.dir = dir;
  lopts.drift.min_rows = 64;
  lopts.drift.reservoir_rows = 96;
  lopts.drift.initial_trained_rows = kTrainRows;
  lopts.drift.retrain_cap_rows = 4096;
  lopts.drift.seed = 97;
  lopts.drift.sse.epsilon = 0.001;
  lopts.drift.sse.alpha = 0.05;
  lopts.drift.sse.eta_scale = 1e-5;
  lopts.drift.sse.k = 40;
  lopts.drift.sse.curvature_batches = 4;
  lopts.drift.sse.curvature_batch_size = 64;
  lopts.drift.sse.seed = 37;
  lopts.drift.retrain.epochs = 4;
  lopts.drift.retrain.seed = 29;
  Result<std::unique_ptr<lifecycle::LifecycleManager>> mgr =
      lifecycle::LifecycleManager::Create(
          *ckpt,
          [&start_hammer, server_holder](
              std::shared_ptr<const serve::ImputationEngine> next) {
            start_hammer();  // the swap must land under live traffic
            return (*server_holder)->HotSwap(std::move(next));
          },
          lopts);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();

  serve::ServerOptions sopts;
  sopts.sample_hook = (*mgr)->SampleHook();
  serve::ImputationServer server(std::move(*engine), sopts);
  ASSERT_TRUE(server.Start().ok());
  *server_holder = &server;

  Result<std::unique_ptr<serve::ImputationClient>> feeder =
      serve::ImputationClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(feeder.ok());

  // Baseline traffic (N stays at or below the trained size): no drift.
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE((*feeder)->Impute(TrafficRows(rng, 16, 0.25, 0.0)).ok());
  }
  Result<lifecycle::DriftController::CheckOutcome> c1 = (*mgr)->RunCheck();
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  EXPECT_TRUE(c1->checked);
  EXPECT_FALSE(c1->drifted);
  out.conf_baseline = c1->confidence;

  // Injected drift: out-of-training-range values, heavier missingness, and
  // enough volume that Theorem 1's η(n, N) term widens the parameter gap.
  for (int b = 0; b < 24; ++b) {
    ASSERT_TRUE((*feeder)->Impute(TrafficRows(rng, 16, 0.45, 8.0)).ok());
  }
  Result<lifecycle::DriftController::CheckOutcome> c2 = (*mgr)->RunCheck();
  join_hammer();
  ASSERT_TRUE(c2.ok()) << c2.status().ToString();
  EXPECT_TRUE(c2->drifted);
  EXPECT_TRUE(c2->retrained);
  EXPECT_TRUE(c2->published);
  EXPECT_GT(c2->n_star, 0u);
  EXPECT_EQ(hammer_failures.load(), 0u);
  EXPECT_EQ((*mgr)->publisher().generation(), 1u);
  out.conf_drift = c2->confidence;
  out.n_star = c2->n_star;
  out.generation = (*mgr)->publisher().generation();

  // Post-swap probe served by the retrained model; confidence recovers.
  Rng probe_rng(1234);
  Result<Matrix> served = (*feeder)->Impute(TrafficRows(probe_rng, 8, 0.5, 8.0));
  ASSERT_TRUE(served.ok());
  out.served_digest = testkit::MatrixDigest(*served);
  Result<lifecycle::DriftController::CheckOutcome> c3 = (*mgr)->RunCheck();
  join_hammer();
  ASSERT_TRUE(c3.ok()) << c3.status().ToString();
  EXPECT_FALSE(c3->drifted) << "confidence did not recover: "
                            << c3->confidence;
  out.conf_after = c3->confidence;

  EXPECT_EQ((*mgr)->tap().dropped_rows(), 0u);
  uint64_t digest = testkit::kFnvOffset;
  EXPECT_TRUE((*mgr)
                  ->store()
                  .Replay([&](const Matrix& rec) {
                    digest = testkit::MatrixDigest(rec, digest);
                  })
                  .ok());
  out.store_digest = digest;

  (*mgr)->Stop();
  server.Shutdown();
  *server_holder = nullptr;
  std::filesystem::remove_all(dir);
}

TEST(LifecycleLoopTest, DriftRetrainSwapBitIdenticalAcrossThreadCounts) {
  const std::string base = ::testing::TempDir() + "scis_lifecycle_loop";
  std::vector<LoopDigest> runs;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    LoopDigest digest;
    RunLoop(threads, base + "_t" + std::to_string(threads), &digest);
    if (::testing::Test::HasFatalFailure()) break;
    runs.push_back(digest);
  }
  runtime::SetNumThreads(0);
  ASSERT_EQ(runs.size(), 3u);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].store_digest, runs[0].store_digest);
    EXPECT_EQ(runs[i].served_digest, runs[0].served_digest);
    EXPECT_EQ(runs[i].n_star, runs[0].n_star);
    EXPECT_EQ(runs[i].generation, runs[0].generation);
    EXPECT_EQ(runs[i].conf_baseline, runs[0].conf_baseline);
    EXPECT_EQ(runs[i].conf_drift, runs[0].conf_drift);
    EXPECT_EQ(runs[i].conf_after, runs[0].conf_after);
  }
}

}  // namespace
}  // namespace scis
