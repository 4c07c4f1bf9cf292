// The tape-free inference forward (nn::InferForward / Mlp::Infer) against
// the tape forward it replaces: bit-identical values at every layer width,
// activation, row count and thread count, through the serving engine over
// owned and mmap-ed checkpoints alike, and no tape built by SSE's output
// distance or GainImputer::Reconstruct.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/sse.h"
#include "data/missingness.h"
#include "data/normalizer.h"
#include "models/gain_imputer.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "serve/engine.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace scis {
namespace {

// Both sides of kernels::kSmallNMax = 64, so the direct and the packed
// fused-linear kernels both run.
const size_t kWidths[] = {1, 9, 63, 64, 65, 130};
const size_t kRowCounts[] = {1, 5, 64, 1000};
const int kThreadCounts[] = {1, 2, 4};

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Matrix TapeForward(const Mlp& mlp, ParamStore& store, const Matrix& x) {
  Tape tape;
  Matrix y = mlp.Forward(tape, tape.Constant(x)).value();
  store.DropBindings();
  return y;
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { runtime::SetNumThreads(0); }
};

TEST(InferForwardTest, MatchesTapeForwardBitExact) {
  ThreadCountGuard restore;
  const Activation acts[] = {Activation::kNone, Activation::kSigmoid,
                             Activation::kRelu, Activation::kTanh};
  Rng rng(101);
  auto check = [&](const Mlp& mlp, ParamStore& store, const Matrix& x,
                   Activation act) {
    for (int threads : kThreadCounts) {
      runtime::SetNumThreads(threads);
      EXPECT_TRUE(SameBytes(mlp.Infer(x), TapeForward(mlp, store, x)))
          << mlp.in_dim() << " -> " << mlp.out_dim() << ", activation "
          << static_cast<int>(act) << ", " << x.rows() << " rows, "
          << threads << " threads";
    }
  };
  for (size_t w : kWidths) {
    for (Activation act : acts) {
      ParamStore store;
      const Mlp mlp(&store, "m", {w, w, w}, act, act, rng);
      for (size_t rows : kRowCounts) {
        check(mlp, store, rng.NormalMatrix(rows, w, 0.0, 1.0), act);
      }
    }
  }
  // Non-square layers (rows, in → out, out): SSE's validation forward,
  // the serve engine's first layer, and the packed path past kSmallNMax —
  // the shapes of FusedLinearTest.MatchesUnfusedCompositionBitwise.
  const struct {
    size_t rows, in, out;
  } shapes[] = {{1000, 18, 9}, {64, 128, 64}, {37, 64, 65}, {5, 3, 70}};
  for (const auto& s : shapes) {
    for (Activation act : acts) {
      ParamStore store;
      const Mlp mlp(&store, "m", {s.in, s.out, s.out}, act, act, rng);
      check(mlp, store, rng.NormalMatrix(s.rows, s.in, 0.0, 1.0), act);
    }
  }
}

// Served rows equal the offline tape forward plus Eq. 1, whether the engine
// owns its weights or reads them out of the mapped checkpoint file.
TEST(InferForwardTest, EngineServesTapeForwardBitExact) {
  ThreadCountGuard restore;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Rng rng(103);
  for (size_t d : kWidths) {
    ParamStore store;
    const Mlp gen(&store, "g", {2 * d, d, d}, Activation::kRelu,
                  Activation::kSigmoid, rng);
    CheckpointMeta meta;
    meta.model = "GAIN";
    for (size_t j = 0; j < d; ++j) {
      meta.columns.push_back({"c" + std::to_string(j), 0, 0});
      meta.norm_lo.push_back(-1.0 - 0.5 * static_cast<double>(j));
      meta.norm_hi.push_back(2.0 + static_cast<double>(j));
    }
    const std::string path = ::testing::TempDir() + "scis_infer_forward_" +
                             std::to_string(d) + ".bin";
    ASSERT_TRUE(SaveCheckpoint(store, meta, path).ok());
    Result<std::shared_ptr<const serve::ImputationEngine>> mapped =
        serve::ImputationEngine::Load(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    Result<Checkpoint> ckpt = LoadCheckpoint(path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    Result<std::shared_ptr<const serve::ImputationEngine>> owned =
        serve::ImputationEngine::FromCheckpoint(*ckpt);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    std::remove(path.c_str());

    for (size_t n : kRowCounts) {
      Matrix rows(n, d), x(n, d), m(n, d);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < d; ++j) {
          if (rng.Bernoulli(0.3)) {
            rows(i, j) = kNaN;
            continue;
          }
          const double lo = meta.norm_lo[j], hi = meta.norm_hi[j];
          rows(i, j) = rng.Uniform(lo, hi);
          x(i, j) = (rows(i, j) - lo) / (hi - lo);
          m(i, j) = 1.0;
        }
      }
      const Matrix h = TapeForward(gen, store, ConcatCols(x, m));
      Matrix expected = rows;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < d; ++j) {
          if (m(i, j) == 0.0) {
            const double lo = meta.norm_lo[j], hi = meta.norm_hi[j];
            expected(i, j) = lo + h(i, j) * (hi - lo);
          }
        }
      }
      for (int threads : kThreadCounts) {
        runtime::SetNumThreads(threads);
        for (const auto* engine : {&*mapped, &*owned}) {
          Result<Matrix> served = (*engine)->ImputeBatch(rows);
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          EXPECT_TRUE(SameBytes(*served, expected))
              << "d " << d << ", " << n << " rows, " << threads
              << " threads, " << (engine == &*mapped ? "mapped" : "owned");
        }
      }
    }
  }
}

// Only the curvature probe in Prepare needs a gradient: SSE's output
// distance and imputing run the tape-free forward, so neither acquires a
// single buffer from a tape pool.
TEST(InferForwardTest, SseProbesAndGainReconstructBuildNoTape) {
  Rng rng(107);
  Matrix values = rng.UniformMatrix(160, 4, 0.0, 1.0);
  Dataset data = MinMaxNormalizer().FitTransform(
      InjectMcar(Dataset::Complete("infer", values), 0.25, rng));
  GainImputerOptions go;
  go.deep.epochs = 1;
  GainImputer gain(go);
  ASSERT_TRUE(gain.Fit(data).ok());
  SseOptions so;
  so.k = 3;
  so.curvature_batches = 2;
  so.curvature_batch_size = 32;
  SseEstimator sse(so);
  ASSERT_TRUE(sse.Prepare(gain, data).ok());

  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  sse.ProbabilityAt(gain, data, 40, 80, data.num_rows());
  gain.Reconstruct(data);
  const obs::MetricsSnapshot after = obs::Registry::Global().Snapshot();
  EXPECT_EQ(after.CounterOr("tape.pool.misses"),
            before.CounterOr("tape.pool.misses"));
  EXPECT_EQ(after.CounterOr("tape.pool.hits"),
            before.CounterOr("tape.pool.hits"));
}

}  // namespace
}  // namespace scis
