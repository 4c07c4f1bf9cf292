// Training-step fast path: pooled tape memory (TapePoolTest) and the fused
// linear forward/backward tape op (FusedLinearTest).
//
// The contracts under test:
//   * steady-state training steps serve every tape buffer from the pool
//     (zero new misses after the first step);
//   * FusedLinear is bit-identical to the unfused
//     act(AddRowBroadcast(MatMul(x, w), b)) composition, forward and
//     backward, for every activation and across thread counts;
//   * its analytic gradients agree with central differences;
//   * the full training step trains to committed weight digests, the same
//     at 1/2/4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "autodiff/grad_check.h"
#include "autodiff/tape.h"
#include "autodiff/tape_pool.h"
#include "core/dim.h"
#include "data/missingness.h"
#include "models/gain_imputer.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "testkit/golden.h"

namespace scis {
namespace {

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << ": values differ in bits";
}

Matrix RandMatrix(Rng& rng, size_t r, size_t c, double lo = -1.0,
                  double hi = 1.0) {
  Matrix m(r, c);
  for (size_t k = 0; k < m.size(); ++k) m.data()[k] = rng.Uniform(lo, hi);
  return m;
}

// The unfused composition FusedLinear promises to match bitwise.
Var ApplyAct(Activation act, Var v) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kSigmoid:
      return Sigmoid(v);
    case Activation::kRelu:
      return Relu(v);
    case Activation::kTanh:
      return Tanh(v);
  }
  return v;
}

// ---------------------------------------------------------------- TapePool

TEST(TapePoolTest, AcquireReleaseRoundTripStats) {
  TapePool pool;
  Matrix a = pool.Acquire(3, 4);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  a.Fill(7.0);
  pool.Release(std::move(a));
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.stats().bytes, 3 * 4 * sizeof(double));

  Matrix b = pool.Acquire(3, 4);  // served from the free list
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().bytes, 0u);

  Matrix c = pool.Acquire(3, 4);  // list empty again -> fresh allocation
  EXPECT_EQ(pool.stats().misses, 2u);

  // A recycled buffer keeps stale contents on Acquire but must come back
  // clean from AcquireZeroed.
  b.Fill(9.0);
  pool.Release(std::move(b));
  Matrix z = pool.AcquireZeroed(3, 4);
  EXPECT_EQ(pool.stats().hits, 2u);
  for (size_t k = 0; k < z.size(); ++k) EXPECT_EQ(z.data()[k], 0.0);

  // Different shape = different free list.
  pool.Release(std::move(c));
  Matrix d = pool.Acquire(4, 3);
  EXPECT_EQ(pool.stats().misses, 3u);
  (void)d;
}

TEST(TapePoolTest, MlpTrainingReachesZeroSteadyStateMisses) {
  Rng rng(7);
  ParamStore store;
  Mlp mlp(&store, "m", std::vector<size_t>{6, 8, 6}, Activation::kRelu,
          Activation::kSigmoid, rng);
  Adam adam(1e-3);
  Tape tape;
  std::vector<const Matrix*> views;
  const Matrix x = RandMatrix(rng, 16, 6, 0.0, 1.0);
  const Matrix y = RandMatrix(rng, 16, 6, 0.0, 1.0);
  const Matrix ones = Matrix::Ones(16, 6);

  uint64_t misses_after_first = 0;
  for (int step = 0; step < 4; ++step) {
    Var out = mlp.Forward(tape, tape.ConstantRef(&x));
    Var loss =
        WeightedMseLoss(out, tape.ConstantRef(&y), tape.ConstantRef(&ones));
    tape.Backward(loss);
    store.CollectGradsInto(&views);
    adam.Step(store, views);
    tape.Clear();
    if (step == 0) misses_after_first = tape.pool_stats().misses;
  }
  EXPECT_GT(tape.pool_stats().hits, 0u);
  // The graph shape is identical every step, so after the warm-up step the
  // pool serves everything: zero new allocations on the tape path.
  EXPECT_EQ(tape.pool_stats().misses, misses_after_first);
  EXPECT_GT(misses_after_first, 0u);  // the first step did allocate
}

TEST(TapePoolTest, DimTrainerSteadyStateZeroPoolMisses) {
  Rng rng(11);
  Matrix x = RandMatrix(rng, 64, 5, 0.0, 1.0);
  Dataset data = InjectMcar(Dataset::Complete("pool", x), 0.3, rng);

  GainImputerOptions go;
  go.deep.epochs = 1;
  GainImputer gain(go);

  DimOptions o;
  o.epochs = 1;
  o.batch_size = 32;  // divides n=64: every batch has identical shape
  o.lambda = 1.0;
  o.sinkhorn_iters = 20;
  DimTrainer dim(o);

  ASSERT_TRUE(dim.Train(gain, data).ok());
  const uint64_t misses = dim.gen_pool_stats().misses;
  EXPECT_GT(misses, 0u);
  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();

  // Steps 2..N (two more epochs of two steps each) must be fully pooled.
  ASSERT_TRUE(dim.Train(gain, data).ok());
  ASSERT_TRUE(dim.Train(gain, data).ok());
  EXPECT_EQ(dim.gen_pool_stats().misses, misses);
  EXPECT_GT(dim.gen_pool_stats().hits, 0u);

  // The tape.pool.* counters publish the same story.
  const obs::MetricsSnapshot after = obs::Registry::Global().Snapshot();
  EXPECT_EQ(after.CounterOr("tape.pool.misses"),
            before.CounterOr("tape.pool.misses"));
  EXPECT_GT(after.CounterOr("tape.pool.hits"),
            before.CounterOr("tape.pool.hits"));
}

TEST(TapePoolTest, ClearInvalidatesParamBindings) {
  ParamStore store;
  auto id = store.Add("w", Matrix{{2.0}});
  Tape tape;
  std::vector<const Matrix*> views;

  Var w1 = store.Bind(tape, id);
  const uint64_t tape_id_before = tape.id();
  Var loss1 = Sum(Square(w1));
  tape.Backward(loss1);
  store.CollectGradsInto(&views);
  ASSERT_EQ(views.size(), 1u);
  ASSERT_NE(views[0], nullptr);
  EXPECT_DOUBLE_EQ((*views[0])(0, 0), 4.0);  // d/dw w^2 = 2w

  tape.Clear();
  EXPECT_NE(tape.id(), tape_id_before);  // cached bindings must not match

  // A fresh bind on the recycled tape starts a fresh leaf and gradient.
  Var w2 = store.Bind(tape, id);
  EXPECT_EQ(w2.index(), 0u);
  Var loss2 = Sum(w2);
  tape.Backward(loss2);
  store.CollectGradsInto(&views);
  ASSERT_NE(views[0], nullptr);
  EXPECT_DOUBLE_EQ((*views[0])(0, 0), 1.0);
}

TEST(TapePoolTest, CollectGradsIntoMarksUnboundAsNull) {
  ParamStore store;
  store.Add("a", Matrix{{1.0}});
  store.Add("b", Matrix{{2.0, 3.0}});
  Tape tape;
  Var a = store.Bind(tape, 0);
  Var loss = Sum(a);
  tape.Backward(loss);
  std::vector<const Matrix*> views;
  store.CollectGradsInto(&views);
  ASSERT_EQ(views.size(), 2u);
  ASSERT_NE(views[0], nullptr);
  EXPECT_DOUBLE_EQ((*views[0])(0, 0), 1.0);
  EXPECT_EQ(views[1], nullptr);  // never bound -> structurally zero
}

// -------------------------------------------------------------- FusedLinear

struct LinShape {
  size_t m, k, n;
};

TEST(FusedLinearTest, MatchesUnfusedCompositionBitwise) {
  // Shapes chosen to exercise the kernel tiles: full 4x4 tiles, leftover
  // rows (m % 4 != 0), partial last panel (n % 4 != 0), degenerate
  // single-row/column cases, the SSE validation forward (1000×18 → 9, split
  // into several row chunks), the serve engine's first layer (64×128 → 64),
  // and the packed path past kSmallNMax (n = 65, 70).
  const LinShape shapes[] = {{1, 1, 1},     {5, 3, 4},     {8, 9, 7},
                             {4, 4, 8},     {6, 1, 5},     {3, 10, 2},
                             {1000, 18, 9}, {64, 128, 64}, {37, 64, 65},
                             {5, 3, 70}};
  const Activation acts[] = {Activation::kNone, Activation::kSigmoid,
                             Activation::kRelu, Activation::kTanh};
  // The row chunks (and so the activation passes) are shape-derived; the
  // thread count only changes which thread runs each chunk.
  for (const int threads : {1, 2, 4}) {
    runtime::SetNumThreads(threads);
    uint64_t seed = 100;
    for (const LinShape& s : shapes) {
      for (Activation act : acts) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << s.m << " k=" << s.k << " n=" << s.n
                     << " act=" << static_cast<int>(act)
                     << " threads=" << threads);
        Rng rng(seed++);
        const Matrix x = RandMatrix(rng, s.m, s.k);
        const Matrix w = RandMatrix(rng, s.k, s.n);
        const Matrix b = RandMatrix(rng, 1, s.n);
        const Matrix c = RandMatrix(rng, s.m, s.n);  // non-uniform grad

        Tape tf;
        Var xf = tf.Leaf(x), wf = tf.Leaf(w), bf = tf.Leaf(b);
        Var yf = FusedLinear(xf, wf, bf, act);
        tf.Backward(Sum(Mul(yf, tf.Constant(c))));

        Tape tu;
        Var xu = tu.Leaf(x), wu = tu.Leaf(w), bu = tu.Leaf(b);
        Var yu = ApplyAct(act, AddRowBroadcast(MatMul(xu, wu), bu));
        tu.Backward(Sum(Mul(yu, tu.Constant(c))));

        ExpectBitEqual(yf.value(), yu.value(), "forward");
        ExpectBitEqual(xf.grad(), xu.grad(), "dX");
        ExpectBitEqual(wf.grad(), wu.grad(), "dW");
        ExpectBitEqual(bf.grad(), bu.grad(), "db");
      }
    }
  }
  runtime::SetNumThreads(0);  // restore the env/hardware default
}

TEST(FusedLinearTest, SharedParamsAccumulateIdentically) {
  // One weight/bias pair consumed by two fused nodes: the gradient
  // accumulation order (reverse node order, first-touch install then
  // AddInPlace) must match the unfused graph exactly.
  Rng rng(42);
  const Matrix x1 = RandMatrix(rng, 5, 3);
  const Matrix x2 = RandMatrix(rng, 5, 3);
  const Matrix w = RandMatrix(rng, 3, 4);
  const Matrix b = RandMatrix(rng, 1, 4);
  const Matrix c = RandMatrix(rng, 5, 4);

  Tape tf;
  Var wf = tf.Leaf(w), bf = tf.Leaf(b);
  Var yf = Add(FusedLinear(tf.Leaf(x1), wf, bf, Activation::kTanh),
               FusedLinear(tf.Leaf(x2), wf, bf, Activation::kTanh));
  tf.Backward(Sum(Mul(yf, tf.Constant(c))));

  Tape tu;
  Var wu = tu.Leaf(w), bu = tu.Leaf(b);
  Var yu = Add(
      ApplyAct(Activation::kTanh, AddRowBroadcast(MatMul(tu.Leaf(x1), wu), bu)),
      ApplyAct(Activation::kTanh, AddRowBroadcast(MatMul(tu.Leaf(x2), wu), bu)));
  tu.Backward(Sum(Mul(yu, tu.Constant(c))));

  ExpectBitEqual(yf.value(), yu.value(), "forward");
  ExpectBitEqual(wf.grad(), wu.grad(), "shared dW");
  ExpectBitEqual(bf.grad(), bu.grad(), "shared db");
}

TEST(FusedLinearTest, GradientMatchesCentralDifference) {
  Rng rng(3);
  const Matrix x = RandMatrix(rng, 4, 3);
  const Matrix w = RandMatrix(rng, 3, 5);
  const Matrix b = RandMatrix(rng, 1, 5);

  for (Activation act : {Activation::kSigmoid, Activation::kTanh}) {
    SCOPED_TRACE(static_cast<int>(act));
    Tape tape;
    Var xv = tape.Leaf(x), wv = tape.Leaf(w), bv = tape.Leaf(b);
    Var loss = Mean(FusedLinear(xv, wv, bv, act));
    tape.Backward(loss);

    auto loss_with_w = [&](const Matrix& wm) {
      Tape t;
      return Mean(FusedLinear(t.Constant(x), t.Leaf(wm), t.Constant(b), act))
          .value()(0, 0);
    };
    auto loss_with_b = [&](const Matrix& bm) {
      Tape t;
      return Mean(FusedLinear(t.Constant(x), t.Constant(w), t.Leaf(bm), act))
          .value()(0, 0);
    };
    EXPECT_LT(MaxGradError(loss_with_w, w, wv.grad()), 1e-6);
    EXPECT_LT(MaxGradError(loss_with_b, b, bv.grad()), 1e-6);
  }
}

// One GAIN-shaped training config (§VI: 2-layer nets of width d on input
// 2d, at Table-II-like widths and DIM-trainer batch sizes).
struct TrainCase {
  const char* name;
  std::vector<size_t> dims;  // {in, hidden, out}
  size_t batch;
  bool bce;         // GAIN-style weighted BCE vs weighted MSE reconstruction
  uint64_t digest;  // testkit::MatrixDigest of the trained weights
};

struct TrainRun {
  Matrix weights;  // store.ToFlat() as one row
  uint64_t misses_after_warmup = 0;
};

// The full fast-path training loop (fused layers, pooled tape, gradient
// views, kernel Adam) on one fixed batch: 5 warm-up steps, then 30 more
// that must be served from the tape pool.
TrainRun TrainFastPath(const TrainCase& c, int threads) {
  constexpr int kWarmup = 5, kSteps = 30;
  runtime::SetNumThreads(threads);
  Rng rng(20260808);
  ParamStore store;
  Mlp mlp(&store, "net", c.dims, Activation::kRelu, Activation::kSigmoid,
          rng);
  Adam adam(1e-3);
  const size_t out = c.dims.back();
  const Matrix x = rng.UniformMatrix(c.batch, c.dims.front(), 0.0, 1.0);
  Matrix y, w;
  if (c.bce) {
    y = rng.BernoulliMatrix(c.batch, out, 0.5);
    w = Matrix::Ones(c.batch, out);
  } else {
    y = rng.UniformMatrix(c.batch, out, 0.0, 1.0);
    w = rng.BernoulliMatrix(c.batch, out, 0.8);
  }

  Tape tape;
  std::vector<const Matrix*> views;
  uint64_t misses_at_warmup = 0;
  for (int step = 0; step < kWarmup + kSteps; ++step) {
    if (step == kWarmup) misses_at_warmup = tape.pool_stats().misses;
    Var pred = mlp.Forward(tape, tape.ConstantRef(&x));
    Var loss = c.bce ? WeightedBceLoss(pred, tape.ConstantRef(&y),
                                       tape.ConstantRef(&w))
                     : WeightedMseLoss(pred, tape.ConstantRef(&y),
                                       tape.ConstantRef(&w));
    tape.Backward(loss);
    store.CollectGradsInto(&views);
    adam.Step(store, views);
    tape.Clear();
  }
  const std::vector<double> flat = store.ToFlat();
  TrainRun run;
  run.weights = Matrix(1, flat.size());
  std::copy(flat.begin(), flat.end(), run.weights.data());
  run.misses_after_warmup = tape.pool_stats().misses - misses_at_warmup;
  return run;
}

TEST(FusedLinearTest, TrainingBitIdenticalAcrossThreadCounts) {
  // The fast-path training step lands on committed weights, the same at
  // 1/2/4 threads, with no tape allocation after warm-up. The digests were
  // recorded where the pre-fast-path engine (fresh tape per step, unfused
  // MatMul/AddRowBroadcast/activation ops, copied gradients, scalar Adam)
  // trained every config to the same bits, so they pin that agreement too.
  const TrainCase cases[] = {
      {"d9_b32", {18, 9, 9}, 32, false, 0x15efe43b6eb115b5ull},
      {"d9_b128", {18, 9, 9}, 128, false, 0x38327d8b6ecebb65ull},
      {"d9_b256", {18, 9, 9}, 256, false, 0xc4a0a12ee5eba521ull},
      {"d16_b128", {32, 16, 16}, 128, false, 0xdadf28c708e5f732ull},
      {"d25_b256", {50, 25, 25}, 256, false, 0x52d05b69f9ad3d18ull},
      {"d57_b256", {114, 57, 57}, 256, false, 0xccf91f97cbb9e664ull},
      {"d9_b512_bce", {18, 9, 9}, 512, true, 0x667c9ba224a387acull},
  };
  for (const TrainCase& c : cases) {
    SCOPED_TRACE(c.name);
    const TrainRun serial = TrainFastPath(c, 1);
    const uint64_t digest = testkit::MatrixDigest(serial.weights);
    EXPECT_EQ(digest, c.digest) << "digest 0x" << std::hex << digest;
    EXPECT_EQ(serial.misses_after_warmup, 0u);
    for (const int threads : {2, 4}) {
      const TrainRun parallel = TrainFastPath(c, threads);
      ExpectBitEqual(parallel.weights, serial.weights, "weights vs 1 thread");
      EXPECT_EQ(parallel.misses_after_warmup, 0u);
    }
  }
  runtime::SetNumThreads(0);  // restore the env/hardware default
}

}  // namespace
}  // namespace scis
