// Shared fuzz properties: the random autodiff op-chain gradient check used
// by both the tier-1 suite (tests/autodiff_fuzz_test.cc, which also replays
// the checked-in corpus) and the long nightly runs. Lives in tests/ — it is
// test scaffolding, not part of scis_testkit.
#ifndef SCIS_TESTS_FUZZ_COMMON_H_
#define SCIS_TESTS_FUZZ_COMMON_H_

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "autodiff/grad_check.h"
#include "autodiff/tape.h"
#include "ot/sinkhorn.h"
#include "tensor/rng.h"
#include "testkit/property.h"

namespace scis {

// Random chain of smooth ops applied to a leaf; returns a scalar.
// Avoids relu (kinks break finite differences) and keeps values in a range
// where exp/log are well-conditioned.
inline Var RandomChain(Tape& /*tape*/, Var x, uint64_t seed, int depth) {
  Rng rng(seed);
  Var h = Sigmoid(x);  // map into (0,1) first
  Var shared = h;      // reused later to exercise grad accumulation
  for (int step = 0; step < depth; ++step) {
    switch (rng.UniformIndex(7)) {
      case 0:
        h = Tanh(MulScalar(h, rng.Uniform(0.5, 2.0)));
        break;
      case 1:
        h = Sigmoid(AddScalar(h, rng.Uniform(-1.0, 1.0)));
        break;
      case 2:
        h = Square(h);
        break;
      case 3:
        h = Log(AddScalar(h, 1.5));  // argument stays >= ~0.5
        break;
      case 4:
        h = Exp(MulScalar(h, 0.5));
        break;
      case 5:
        h = Mul(h, shared);  // reuse an earlier node
        break;
      case 6:
        h = Add(h, MulScalar(shared, -0.3));
        break;
    }
  }
  return Mean(Square(h));
}

// One fuzz trial: build a seed-derived chain over a random leaf shape and
// check the tape gradient against central differences.
inline testkit::PropertyStatus AutodiffChainProperty(uint64_t seed) {
  Rng rng(seed * 31 + 7);
  const size_t n = 2 + rng.UniformIndex(4);
  const size_t d = 1 + rng.UniformIndex(5);
  const Matrix x0 = rng.NormalMatrix(n, d, 0.0, 0.8);
  const int depth = 3 + static_cast<int>(seed % 5);

  Tape tape;
  Var x = tape.Leaf(x0);
  Var loss = RandomChain(tape, x, seed, depth);
  tape.Backward(loss);
  const Matrix analytic = x.grad();

  auto f = [&](const Matrix& xv) {
    Tape t2;
    Var x2 = t2.Leaf(xv);
    return RandomChain(t2, x2, seed, depth).value()(0, 0);
  };
  // Exp/Square chains can push gradients to ~1e5, where the O(h²)
  // central-difference truncation error dominates any absolute bound —
  // so the tolerance is relative to the gradient's own scale.
  double scale = 1.0;
  for (size_t k = 0; k < analytic.size(); ++k) {
    scale = std::max(scale, std::abs(analytic[k]));
  }
  const double err = MaxGradError(f, x0, analytic, 1e-5);
  PROP_CHECK_LE(err / scale, 5e-5);
  return testkit::PropertyStatus::Pass();
}

// Edge-case Sinkhorn scenarios derived from the seed (seed % 5 picks the
// scenario): degenerate shapes (1×m and n×1 costs), extreme λ (1e-3 or
// 1e5 by seed parity), duplicate rows (a rank-deficient Gibbs kernel), and
// fully identical samples (a cost set by the masks alone, full of ties).
// Each trial runs the masked dense solver and checks structural
// invariants: finite potentials and objectives, a nonnegative finite plan,
// and exact row marginals (the last half-iteration enforces them). Seeds
// that ever exposed a bug belong in tests/corpus/sinkhorn_edge_seeds.txt.
inline testkit::PropertyStatus SinkhornEdgeCaseProperty(uint64_t seed) {
  Rng rng(seed * 131 + 17);
  const int scenario = static_cast<int>(seed % 5);
  size_t n = 2 + rng.UniformIndex(6);
  size_t m = 2 + rng.UniformIndex(6);
  const size_t d = 1 + rng.UniformIndex(4);
  double lambda = 0.5 + rng.Uniform(0.0, 5.0);
  switch (scenario) {
    case 0:
      n = 1;
      break;
    case 1:
      m = 1;
      break;
    case 2:
      lambda = (seed % 2 == 0) ? 1e-3 : 1e5;
      break;
    default:
      break;
  }
  Matrix a = rng.UniformMatrix(n, d, 0.0, 1.0);
  Matrix b = rng.UniformMatrix(m, d, 0.0, 1.0);
  if (scenario == 3) {
    // Every row a copy of row 0 or row 1: duplicate samples make the
    // sample Gibbs kernel rank-deficient.
    for (size_t i = 2; i < n; ++i)
      for (size_t k = 0; k < d; ++k) a(i, k) = a(i % 2, k);
    for (size_t j = 2; j < m; ++j)
      for (size_t k = 0; k < d; ++k) b(j, k) = b(j % 2, k);
  } else if (scenario == 4) {
    // All rows identical on both sides: only the masks separate them.
    for (size_t i = 1; i < n; ++i)
      for (size_t k = 0; k < d; ++k) a(i, k) = a(0, k);
    for (size_t j = 0; j < m; ++j)
      for (size_t k = 0; k < d; ++k) b(j, k) = a(0, k);
  }
  const Matrix ma = rng.BernoulliMatrix(n, d, 0.8);
  const Matrix mb = rng.BernoulliMatrix(m, d, 0.8);

  SinkhornOptions opts;
  opts.lambda = lambda;
  opts.max_iters = 300;
  opts.tol = 1e-9;
  const SinkhornSolution sol = SolveSinkhornMasked(a, ma, b, mb, opts);
  PROP_CHECK(std::isfinite(sol.reg_value));
  PROP_CHECK(std::isfinite(sol.transport_cost));
  for (const double fv : sol.f) PROP_CHECK(std::isfinite(fv));
  for (const double gv : sol.g) PROP_CHECK(std::isfinite(gv));
  PROP_CHECK(sol.plan.rows() == n && sol.plan.cols() == m);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    double rs = 0.0;
    for (size_t j = 0; j < m; ++j) {
      PROP_CHECK(std::isfinite(sol.plan(i, j)));
      PROP_CHECK(sol.plan(i, j) >= 0.0);
      rs += sol.plan(i, j);
    }
    PROP_CHECK_MSG(std::abs(rs - inv_n) <= 1e-9 * (1.0 + inv_n),
                   "row sum " << rs << " vs " << inv_n);
  }
  return testkit::PropertyStatus::Pass();
}

// Seeds from a corpus file: one decimal u64 per line, '#' comments and
// blank lines skipped. Missing file -> empty list (the caller asserts).
inline std::vector<uint64_t> LoadSeedCorpus(const std::string& path) {
  std::vector<uint64_t> seeds;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    seeds.push_back(std::stoull(line.substr(start)));
  }
  return seeds;
}

}  // namespace scis

#endif  // SCIS_TESTS_FUZZ_COMMON_H_
