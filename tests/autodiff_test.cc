#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autodiff/grad_check.h"
#include "autodiff/tape.h"
#include "tensor/rng.h"
#include "tensor/sparse.h"

namespace scis {
namespace {

// Checks the tape gradient of `build` (mapping a leaf to a scalar Var)
// against central differences at `x0`.
void CheckGradient(const Matrix& x0,
                   const std::function<Var(Tape&, Var)>& build,
                   double tol = 1e-6) {
  Tape tape;
  Var x = tape.Leaf(x0);
  Var loss = build(tape, x);
  tape.Backward(loss);
  Matrix analytic = x.grad();
  auto f = [&](const Matrix& xv) {
    Tape t2;
    Var x2 = t2.Leaf(xv);
    return build(t2, x2).value()(0, 0);
  };
  EXPECT_LT(MaxGradError(f, x0, analytic), tol);
}

TEST(TapeTest, LeafAndConstant) {
  Tape tape;
  Var a = tape.Leaf(Matrix{{1, 2}});
  Var c = tape.Constant(Matrix{{3, 4}});
  EXPECT_TRUE(tape.requires_grad(a));
  EXPECT_FALSE(tape.requires_grad(c));
  EXPECT_DOUBLE_EQ(a.value()(0, 1), 2);
}

TEST(TapeTest, BackwardThroughSum) {
  Tape tape;
  Var a = tape.Leaf(Matrix{{1, 2}, {3, 4}});
  Var loss = Sum(a);
  tape.Backward(loss);
  EXPECT_TRUE(a.grad().AllClose(Matrix::Ones(2, 2)));
}

TEST(TapeTest, GradAccumulatesOverReuse) {
  Tape tape;
  Var a = tape.Leaf(Matrix{{2.0}});
  Var loss = Sum(Add(a, a));  // d/da = 2
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 2.0);
}

TEST(TapeTest, SecondBackwardResetsGrads) {
  Tape tape;
  Var a = tape.Leaf(Matrix{{1.0}});
  Var loss = Sum(a);
  tape.Backward(loss);
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 1.0);  // not 2.0
}

TEST(TapeTest, ConstantsReceiveNoGradient) {
  Tape tape;
  Var a = tape.Leaf(Matrix{{1.0}});
  Var c = tape.Constant(Matrix{{5.0}});
  Var loss = Sum(Mul(a, c));
  tape.Backward(loss);
  EXPECT_DOUBLE_EQ(a.grad()(0, 0), 5.0);
  EXPECT_TRUE(c.grad().AllClose(Matrix(1, 1)));  // untouched zeros
}

TEST(GradCheckTest, MatMulBothSides) {
  Rng rng(1);
  Matrix a0 = rng.NormalMatrix(3, 4);
  Matrix b0 = rng.NormalMatrix(4, 2);
  CheckGradient(a0, [&](Tape& t, Var x) {
    return Sum(MatMul(x, t.Constant(b0)));
  });
  CheckGradient(b0, [&](Tape& t, Var x) {
    return Sum(MatMul(t.Constant(a0), x));
  });
}

TEST(GradCheckTest, ElementwiseOps) {
  Rng rng(2);
  Matrix x0 = rng.UniformMatrix(2, 3, 0.2, 1.5);
  Matrix y0 = rng.UniformMatrix(2, 3, 0.2, 1.5);
  CheckGradient(x0, [&](Tape& t, Var x) { return Sum(Add(x, t.Constant(y0))); });
  CheckGradient(x0, [&](Tape& t, Var x) { return Sum(Sub(t.Constant(y0), x)); });
  CheckGradient(x0, [&](Tape& t, Var x) { return Sum(Mul(x, t.Constant(y0))); });
  CheckGradient(x0, [&](Tape&, Var x) { return Sum(MulScalar(x, -2.5)); });
  CheckGradient(x0, [&](Tape&, Var x) { return Sum(AddScalar(x, 3.0)); });
  CheckGradient(x0, [&](Tape&, Var x) { return Sum(Square(x)); });
}

TEST(GradCheckTest, Activations) {
  Rng rng(3);
  Matrix x0 = rng.NormalMatrix(3, 3);
  CheckGradient(x0, [](Tape&, Var x) { return Sum(Sigmoid(x)); });
  CheckGradient(x0, [](Tape&, Var x) { return Sum(Tanh(x)); });
  CheckGradient(x0, [](Tape&, Var x) { return Sum(Exp(x)); });
  Matrix pos = rng.UniformMatrix(3, 3, 0.5, 2.0);
  CheckGradient(pos, [](Tape&, Var x) { return Sum(Log(x)); });
  // Relu away from the kink.
  Matrix away = rng.UniformMatrix(3, 3, 0.5, 2.0);
  away(0, 0) = -1.0;
  CheckGradient(away, [](Tape&, Var x) { return Sum(Relu(x)); });
}

TEST(GradCheckTest, BroadcastAndConcat) {
  Rng rng(4);
  Matrix x0 = rng.NormalMatrix(3, 2);
  Matrix row = rng.NormalMatrix(1, 2);
  CheckGradient(x0, [&](Tape& t, Var x) {
    return Sum(AddRowBroadcast(x, t.Constant(row)));
  });
  CheckGradient(row, [&](Tape& t, Var r) {
    return Sum(Sigmoid(AddRowBroadcast(t.Constant(x0), r)));
  });
  Matrix b0 = rng.NormalMatrix(3, 4);
  CheckGradient(x0, [&](Tape& t, Var x) {
    return Sum(Square(ConcatCols(x, t.Constant(b0))));
  });
  CheckGradient(b0, [&](Tape& t, Var b) {
    return Sum(Square(ConcatCols(t.Constant(x0), b)));
  });
}

TEST(GradCheckTest, MeanOp) {
  Rng rng(5);
  Matrix x0 = rng.NormalMatrix(4, 5);
  CheckGradient(x0, [](Tape&, Var x) { return Mean(Square(x)); });
}

TEST(GradCheckTest, WeightedMse) {
  Rng rng(6);
  Matrix p0 = rng.UniformMatrix(4, 3, 0, 1);
  Matrix y0 = rng.UniformMatrix(4, 3, 0, 1);
  Matrix w0 = rng.BernoulliMatrix(4, 3, 0.6);
  CheckGradient(p0, [&](Tape& t, Var p) {
    return WeightedMseLoss(p, t.Constant(y0), t.Constant(w0));
  });
}

TEST(GradCheckTest, WeightedMseValue) {
  Tape tape;
  Var p = tape.Leaf(Matrix{{1.0, 0.0}});
  Var y = tape.Constant(Matrix{{0.0, 5.0}});
  Var w = tape.Constant(Matrix{{1.0, 0.0}});
  // Only first cell counts: (1-0)^2 / 1 = 1.
  EXPECT_DOUBLE_EQ(WeightedMseLoss(p, y, w).value()(0, 0), 1.0);
}

TEST(GradCheckTest, WeightedBce) {
  Rng rng(7);
  Matrix p0 = rng.UniformMatrix(4, 3, 0.1, 0.9);
  Matrix y0 = rng.BernoulliMatrix(4, 3, 0.5);
  Matrix w0 = Matrix::Ones(4, 3);
  CheckGradient(p0, [&](Tape& t, Var p) {
    return WeightedBceLoss(p, t.Constant(y0), t.Constant(w0));
  });
}

TEST(GradCheckTest, BceValueKnownCase) {
  Tape tape;
  Var p = tape.Leaf(Matrix{{0.5}});
  Var y = tape.Constant(Matrix{{1.0}});
  Var w = tape.Constant(Matrix{{1.0}});
  EXPECT_NEAR(WeightedBceLoss(p, y, w).value()(0, 0), std::log(2.0), 1e-12);
}

TEST(GradCheckTest, DeepChain) {
  // Composite expression exercising several ops at once.
  Rng rng(8);
  Matrix x0 = rng.NormalMatrix(3, 3);
  Matrix w0 = rng.NormalMatrix(3, 2);
  CheckGradient(x0, [&](Tape& t, Var x) {
    Var h = Tanh(MatMul(x, t.Constant(w0)));
    Var s = Sigmoid(MulScalar(h, 2.0));
    return Mean(Square(Sub(s, AddScalar(h, 0.1))));
  });
}

TEST(GradCheckTest, SparseMatMul) {
  auto sp = std::make_shared<const SparseMatrix>(
      3, 3,
      std::vector<Edge>{
          {0, 0, 1.0}, {0, 2, 2.0}, {1, 1, -1.0}, {2, 0, 0.5}});
  Rng rng(9);
  Matrix x0 = rng.NormalMatrix(3, 2);
  CheckGradient(x0, [&](Tape&, Var x) {
    return Sum(Square(SparseMatMul(sp, x)));
  });
}

TEST(GradCheckTest, CustomScalarOpInjectsGradient) {
  Matrix x0{{1.0, 2.0}};
  Tape tape;
  Var x = tape.Leaf(x0);
  // value = 7, gradient = [3, 4] regardless of x (a fake loss).
  Var loss = CustomScalarOp(x, 7.0, [] { return Matrix{{3.0, 4.0}}; });
  EXPECT_DOUBLE_EQ(loss.value()(0, 0), 7.0);
  Var scaled = MulScalar(loss, 2.0);
  tape.Backward(scaled);
  EXPECT_TRUE(x.grad().AllClose(Matrix{{6.0, 8.0}}));
}

}  // namespace
}  // namespace scis
