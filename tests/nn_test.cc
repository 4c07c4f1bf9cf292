#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/optimizer.h"

namespace scis {
namespace {

TEST(ParamStoreTest, RegisterAndAccess) {
  ParamStore store;
  auto id = store.Add("w", Matrix{{1, 2}, {3, 4}});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.name(id), "w");
  EXPECT_DOUBLE_EQ(store.value(id)(1, 1), 4);
}

TEST(ParamStoreTest, FlatRoundTrip) {
  ParamStore store;
  store.Add("a", Matrix{{1, 2}});
  store.Add("b", Matrix{{3}, {4}, {5}});
  EXPECT_EQ(store.NumScalars(), 5u);
  std::vector<double> flat = store.ToFlat();
  EXPECT_EQ(flat, (std::vector<double>{1, 2, 3, 4, 5}));
  flat[3] = 40;
  store.FromFlat(flat);
  EXPECT_DOUBLE_EQ(store.value(1)(1, 0), 40);
}

TEST(ParamStoreTest, BindCollectsGradients) {
  ParamStore store;
  auto id = store.Add("w", Matrix{{2.0}});
  Tape tape;
  Var w = store.Bind(tape, id);
  Var loss = Sum(Square(w));  // d/dw = 2w = 4
  tape.Backward(loss);
  std::vector<Matrix> grads = store.CollectGrads();
  ASSERT_EQ(grads.size(), 1u);
  EXPECT_DOUBLE_EQ(grads[0](0, 0), 4.0);
}

TEST(ParamStoreTest, RebindingOnSameTapeSharesLeaf) {
  ParamStore store;
  auto id = store.Add("w", Matrix{{1.0}});
  Tape tape;
  Var w1 = store.Bind(tape, id);
  Var w2 = store.Bind(tape, id);
  EXPECT_EQ(w1.index(), w2.index());
  Var loss = Sum(Add(w1, w2));  // gradient accumulates to 2
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(store.CollectGrads()[0](0, 0), 2.0);
}

TEST(ParamStoreTest, UnboundParamsGetZeroGrads) {
  ParamStore store;
  store.Add("a", Matrix{{1.0}});
  store.Add("b", Matrix{{2.0, 3.0}});
  Tape tape;
  Var a = store.Bind(tape, 0);
  Var loss = Sum(a);
  tape.Backward(loss);
  std::vector<Matrix> grads = store.CollectGrads();
  EXPECT_DOUBLE_EQ(grads[0](0, 0), 1.0);
  EXPECT_TRUE(grads[1].AllClose(Matrix(1, 2)));
}

// A binding records its tape's generation: once the tape is cleared or
// destroyed, the parameter reads as unbound instead of dereferencing the
// dead tape.
TEST(ParamStoreTest, BindingsDieWithTheirTape) {
  ParamStore store;
  store.Add("w", Matrix{{2.0}});
  {
    Tape tape;
    Var w = store.Bind(tape, 0);
    tape.Backward(Sum(Square(w)));
  }
  EXPECT_TRUE(store.CollectGrads()[0].AllClose(Matrix(1, 1)));

  Tape tape;
  Var w = store.Bind(tape, 0);
  tape.Backward(Sum(Square(w)));
  tape.Clear();
  std::vector<const Matrix*> views;
  store.CollectGradsInto(&views);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0], nullptr);

  // A live binding is unaffected.
  Var w2 = store.Bind(tape, 0);
  tape.Backward(Sum(Square(w2)));
  EXPECT_DOUBLE_EQ(store.CollectGrads()[0](0, 0), 4.0);
}

TEST(InitTest, XavierWithinLimit) {
  Rng rng(1);
  Matrix w = InitWeight(InitKind::kXavierUniform, 30, 50, rng);
  const double limit = std::sqrt(6.0 / 80.0);
  for (size_t k = 0; k < w.size(); ++k) {
    EXPECT_LE(std::abs(w[k]), limit);
  }
  EXPECT_GT(FrobeniusNorm(w), 0.0);
}

TEST(InitTest, HeNormalVariance) {
  Rng rng(2);
  Matrix w = InitWeight(InitKind::kHeNormal, 200, 200, rng);
  double var = 0;
  for (size_t k = 0; k < w.size(); ++k) var += w[k] * w[k];
  var /= w.size();
  EXPECT_NEAR(var, 2.0 / 200.0, 2e-3);
}

TEST(LinearTest, ForwardShapeAndBias) {
  ParamStore store;
  Rng rng(3);
  Linear layer(&store, "l", 3, 2, Activation::kNone, rng);
  Tape tape;
  Var x = tape.Constant(Matrix::Zeros(4, 3));
  Var y = layer.Forward(tape, x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  // Zero input -> output equals (zero-initialized) bias.
  EXPECT_TRUE(y.value().AllClose(Matrix::Zeros(4, 2)));
}

TEST(MlpTest, DimsAndActivation) {
  ParamStore store;
  Rng rng(4);
  Mlp net(&store, "m", {5, 8, 3}, Activation::kRelu, Activation::kSigmoid,
          rng);
  EXPECT_EQ(net.in_dim(), 5u);
  EXPECT_EQ(net.out_dim(), 3u);
  EXPECT_EQ(net.num_layers(), 2u);
  Tape tape;
  Var y = net.Forward(tape, tape.Constant(rng.NormalMatrix(6, 5)));
  for (size_t k = 0; k < y.value().size(); ++k) {
    EXPECT_GT(y.value().data()[k], 0.0);
    EXPECT_LT(y.value().data()[k], 1.0);
  }
}

// At rate 0 dropout is the identity and draws nothing from the stream.
TEST(DropoutTest, RateZeroPassesThrough) {
  Tape tape;
  Rng rng(5);
  Var x = tape.Constant(Matrix::Ones(3, 3));
  Var y = Dropout(x, 0.0, rng);
  EXPECT_EQ(y.index(), x.index());
  Rng fresh(5);
  EXPECT_EQ(rng.NextU64(), fresh.NextU64());
}

TEST(DropoutTest, TrainKeepsExpectation) {
  Tape tape;
  Rng rng(6);
  Var x = tape.Constant(Matrix::Ones(100, 100));
  Var y = Dropout(x, 0.5, rng);
  // Inverted dropout: E[y] = 1; entries are 0 or 2.
  EXPECT_NEAR(Mean(y.value()), 1.0, 0.05);
  for (size_t k = 0; k < y.value().size(); ++k) {
    const double v = y.value().data()[k];
    EXPECT_TRUE(v == 0.0 || std::abs(v - 2.0) < 1e-12);
  }
}

TEST(SgdTest, StepsDownhill) {
  ParamStore store;
  store.Add("w", Matrix{{10.0}});
  Sgd sgd(0.1);
  for (int i = 0; i < 100; ++i) {
    // grad of 0.5 w² is w.
    sgd.Step(store, {Matrix{{store.value(0)(0, 0)}}});
  }
  EXPECT_NEAR(store.value(0)(0, 0), 0.0, 1e-3);
}

TEST(SgdTest, MomentumAccelerates) {
  ParamStore s1, s2;
  s1.Add("w", Matrix{{10.0}});
  s2.Add("w", Matrix{{10.0}});
  Sgd plain(0.01), mom(0.01, 0.9);
  for (int i = 0; i < 50; ++i) {
    plain.Step(s1, {Matrix{{s1.value(0)(0, 0)}}});
    mom.Step(s2, {Matrix{{s2.value(0)(0, 0)}}});
  }
  EXPECT_LT(std::abs(s2.value(0)(0, 0)), std::abs(s1.value(0)(0, 0)));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ParamStore store;
  store.Add("w", Matrix{{5.0, -3.0}});
  Adam adam(0.1);
  for (int i = 0; i < 300; ++i) {
    Matrix w = store.value(0);
    adam.Step(store, {w});  // grad of 0.5||w||² is w
  }
  EXPECT_LT(FrobeniusNorm(store.value(0)), 1e-2);
}

TEST(AdamTest, TrainsMlpOnRegression) {
  // y = sin(pattern) learned by a small MLP: loss should drop sharply.
  Rng rng(7);
  const size_t n = 128, d = 3;
  Matrix x = rng.UniformMatrix(n, d, -1, 1);
  Matrix y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    y(i, 0) = 0.5 + 0.3 * std::sin(2 * x(i, 0)) - 0.2 * x(i, 1) * x(i, 2);
  }
  ParamStore store;
  Mlp net(&store, "reg", {d, 16, 1}, Activation::kTanh, Activation::kNone,
          rng);
  Adam adam(0.01);
  double first = 0, last = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    Tape tape;
    Var pred = net.Forward(tape, tape.Constant(x));
    Var loss = WeightedMseLoss(pred, tape.Constant(y),
                               tape.Constant(Matrix::Ones(n, 1)));
    tape.Backward(loss);
    adam.Step(store, store.CollectGrads());
    if (epoch == 0) first = loss.value()(0, 0);
    last = loss.value()(0, 0);
  }
  EXPECT_LT(last, 0.1 * first);
}

}  // namespace
}  // namespace scis
