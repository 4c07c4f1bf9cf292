// Differential tests of the src/kernels compute kernels against slow
// references: the blocked matmuls vs the testkit schoolbook oracle, the
// fused log-sum-exp and kernel-domain Sinkhorn passes vs scalar std::exp
// re-derivations, ExpD vs std::exp in ulps, plus the determinism contract —
// chunk-split invariance at the kernel level and 1/2/4-thread bit-identity
// through the public ops that now run on these kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/arena.h"
#include "kernels/elementwise.h"
#include "kernels/exp.h"
#include "kernels/lse.h"
#include "kernels/masked_distance.h"
#include "kernels/sinkhorn_kernels.h"
#include "ot/masked_cost.h"
#include "ot/sinkhorn.h"
#include "runtime/runtime.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "testkit/gtest_glue.h"
#include "testkit/oracles.h"

namespace scis {
namespace {

using testkit::PropertyStatus;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Distance in representable doubles between two finite values of the same
// sign (monotone total-order trick on the sign-flipped bit patterns).
int64_t UlpDistance(double a, double b) {
  auto key = [](double x) {
    const int64_t i = std::bit_cast<int64_t>(x);
    return i < 0 ? std::numeric_limits<int64_t>::min() - i : i;
  };
  const int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

// Scalar, allocation-free re-derivation of one LSE through std::exp — an
// independent implementation, not a refactor of the kernel.
double ScalarLse(const double* v, size_t n) {
  if (n == 0) return -kInf;
  double mx = v[0];
  for (size_t i = 1; i < n; ++i) mx = std::max(mx, v[i]);
  if (!std::isfinite(mx)) return mx;
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += std::exp(v[i] - mx);
  return mx + std::log(s);
}

TEST(KernelsExpTest, MatchesStdExpWithinUlps) {
  CHECK_PROPERTY("expd_vs_std_exp_ulps", [](uint64_t seed) {
    Rng rng(seed);
    // Cover the argument magnitudes the solver actually feeds ExpD: tiny
    // (near 0), moderate, and large-negative (Sinkhorn tails).
    const double ranges[][2] = {{-1.0, 1.0}, {-40.0, 0.0}, {-700.0, 700.0}};
    for (const auto& r : ranges) {
      for (int k = 0; k < 64; ++k) {
        const double x = rng.UniformMatrix(1, 1, r[0], r[1])(0, 0);
        const double got = kernels::ExpD(x);
        const double want = std::exp(x);
        if (want == 0.0 || !std::isfinite(want)) continue;
        // Skip the denormal range: ExpD flushes it to 0 by design.
        if (want < std::numeric_limits<double>::min()) continue;
        PROP_CHECK_MSG(UlpDistance(got, want) <= 4,
                       "ExpD(" << x << ") = " << got << " vs std::exp "
                               << want);
      }
    }
    return PropertyStatus::Pass();
  });
}

TEST(KernelsExpTest, EdgeCases) {
  EXPECT_EQ(kernels::ExpD(0.0), 1.0);
  EXPECT_EQ(kernels::ExpD(kInf), kInf);
  EXPECT_EQ(kernels::ExpD(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(kernels::ExpD(std::nan(""))));
  EXPECT_EQ(kernels::ExpD(710.0), kInf);
  EXPECT_EQ(kernels::ExpD(-800.0), 0.0);
  // Largest finite result: exp(709.78…) ≈ 1.79e308 < DBL_MAX.
  EXPECT_TRUE(std::isfinite(kernels::ExpD(709.78271289338397)));
  EXPECT_GT(kernels::ExpD(709.78271289338397), 1e308);
  // Just past the clamp is +inf, not garbage.
  EXPECT_EQ(kernels::ExpD(709.79), kInf);
}

TEST(KernelsLseTest, EmptySpanReturnsNegInfinity) {
  // Regression for the historic sinkhorn.cc helper, which read v[0]
  // unguarded: the empty sum is 0 and log 0 = -inf.
  EXPECT_EQ(kernels::LogSumExp(nullptr, 0), -kInf);
  EXPECT_EQ(kernels::MaxValue(nullptr, 0), -kInf);
  EXPECT_EQ(kernels::SoftmaxRow(nullptr, 0, nullptr), -kInf);
}

TEST(KernelsLseTest, NonFiniteMaxShortCircuits) {
  const std::vector<double> all_ninf(5, -kInf);
  EXPECT_EQ(kernels::LogSumExp(all_ninf.data(), all_ninf.size()), -kInf);
  const std::vector<double> with_inf = {0.0, kInf, 1.0};
  EXPECT_EQ(kernels::LogSumExp(with_inf.data(), with_inf.size()), kInf);
}

TEST(KernelsVsOracle, LogSumExpMatchesScalarReference) {
  CHECK_PROPERTY("lse_vs_scalar_reference", [](uint64_t seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.UniformIndex(257);  // crosses several lane tails
    const Matrix v = rng.UniformMatrix(1, n, -30.0, 10.0);
    const double got = kernels::LogSumExp(v.data(), n);
    const double want = ScalarLse(v.data(), n);
    // got and want differ only by lane reassociation and ExpD-vs-libm ulps,
    // both of which compress through the final log.
    PROP_CHECK_MSG(UlpDistance(got, want) <= 64,
                   "LSE " << got << " vs scalar " << want << " at n=" << n);
    return PropertyStatus::Pass();
  });
}

TEST(KernelsVsOracle, SinkhornKernelPassesMatchScalarReference) {
  CHECK_PROPERTY("sinkhorn_kernel_passes_vs_scalar_reference",
                 [](uint64_t seed) {
    Rng rng(seed);
    const size_t rows = 1 + rng.UniformIndex(12);
    const size_t cols = 1 + rng.UniformIndex(40);  // crosses lane tails
    const double lam = 0.5 + rng.UniformMatrix(1, 1, 0.0, 4.0)(0, 0);
    const Matrix cost = rng.UniformMatrix(rows, cols, 0.0, 8.0);
    const Matrix fs = rng.UniformMatrix(1, rows, -2.0, 2.0);
    const Matrix gs = rng.UniformMatrix(1, cols, -2.0, 2.0);
    const Matrix wr = rng.UniformMatrix(1, rows, 0.0, 3.0);
    const Matrix wc = rng.UniformMatrix(1, cols, 0.0, 3.0);
    Matrix kern(rows, cols);
    kernels::GibbsKernelRows(cost.data(), 1.0 / lam, fs.data(), gs.data(), 0,
                             rows, cols, kern.data());
    std::vector<double> col_sums(cols), row_sums(rows);
    kernels::KernelColumnSums(kern.data(), wr.data(), rows, cols, 0, cols,
                              col_sums.data());
    kernels::KernelRowSums(kern.data(), wc.data(), 0, rows, cols,
                           row_sums.data());
    std::vector<double> ref_col(cols, 0.0);
    for (size_t i = 0; i < rows; ++i) {
      double ref_row = 0.0;
      for (size_t j = 0; j < cols; ++j) {
        const double k = std::exp(fs(0, i) + gs(0, j) - cost(i, j) / lam);
        PROP_CHECK_NEAR(kern(i, j), k, 1e-12 * k);
        ref_row += k * wc(0, j);
        ref_col[j] += k * wr(0, i);
      }
      PROP_CHECK_NEAR(row_sums[i], ref_row, 1e-12 * (1.0 + ref_row));
    }
    for (size_t j = 0; j < cols; ++j) {
      PROP_CHECK_NEAR(col_sums[j], ref_col[j], 1e-12 * (1.0 + ref_col[j]));
    }
    return PropertyStatus::Pass();
  });
}

TEST(KernelsVsOracle, PlanRowsMatchScalarReference) {
  CHECK_PROPERTY("plan_rows_vs_scalar_reference", [](uint64_t seed) {
    Rng rng(seed);
    const size_t rows = 1 + rng.UniformIndex(10);
    const size_t cols = 1 + rng.UniformIndex(30);
    const double lam = 1.0 + rng.UniformMatrix(1, 1, 0.0, 3.0)(0, 0);
    const Matrix cost = rng.UniformMatrix(rows, cols, 0.0, 6.0);
    const Matrix su = rng.UniformMatrix(1, rows, 0.01, 0.2);
    const Matrix sv = rng.UniformMatrix(1, cols, 0.01, 0.2);
    const Matrix alpha = rng.UniformMatrix(1, rows, -8.0, 0.0);
    const Matrix beta = rng.UniformMatrix(1, cols, -8.0, 0.0);
    Matrix plan(rows, cols);
    for (size_t i = 0; i < rows; ++i)
      for (size_t j = 0; j < cols; ++j)
        plan(i, j) = std::exp(-cost(i, j) / lam);
    const Matrix kern = plan;
    double csum = 0.0, lsum = 0.0;
    kernels::PlanRows(cost.data(), su.data(), sv.data(), alpha.data(),
                      beta.data(), 0, rows, cols, plan.data(), &csum, &lsum);
    double ref_c = 0.0, ref_l = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        const double p = su(0, i) * kern(i, j) * sv(0, j);
        PROP_CHECK_NEAR(plan(i, j), p, 1e-15);
        ref_c += p * cost(i, j);
        ref_l += p * (alpha(0, i) + beta(0, j));
      }
    }
    PROP_CHECK_NEAR(csum, ref_c, 1e-9);
    PROP_CHECK_NEAR(lsum, ref_l, 1e-9);
    return PropertyStatus::Pass();
  });
}

// The envelope gradient as it was computed entry by entry before the tiled
// kernel: a fused `g += (−P_ij·mb_j)⊙b_j` per nonzero plan entry, then the
// row total and the closing MaskedGradFinish.
Matrix PerEntryGradWrtA(const Matrix& plan, const Matrix& a, const Matrix& ma,
                        const Matrix& b, const Matrix& mb) {
  const size_t n = a.rows(), m = b.rows(), d = a.cols();
  Matrix grad(n, d);
  for (size_t i = 0; i < n; ++i) {
    const double* pi = plan.row_data(i);
    double* gi = grad.row_data(i);
    const double prow = kernels::Sum(pi, m);
    for (size_t j = 0; j < m; ++j) {
      const double pij = pi[j];
      if (pij == 0.0) continue;
      const double alpha = -pij;
      const double* x = mb.row_data(j);
      const double* y = b.row_data(j);
      for (size_t k = 0; k < d; ++k) gi[k] += alpha * x[k] * y[k];
    }
    kernels::MaskedGradFinish(ma.row_data(i), a.row_data(i), prow, gi, d);
  }
  return grad;
}

bool SameBytes(const Matrix& x, const Matrix& y) {
  return x.SameShape(y) &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

// Both sides of the tiled envelope gradient against the per-entry loop,
// byte for byte, over tile remainders in n and m and chunk overlaps in d.
// Plans carry exact zeros, including whole zero rows and columns whose
// rows of a and b hold ±inf and NaN: a zero-plan term must not reach the
// sum, whatever b holds there.
TEST(KernelsVsOracle, MaskedGradMatchesPerEntryLoop) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {kInf, -kInf, kNaN};
  Rng rng(23);
  for (size_t n : {1, 3, 5, 128, 131}) {
    for (size_t m : {1, 3, 5, 128, 131}) {
      for (size_t d : {1, 3, 4, 5, 8, 9, 64}) {
        SCOPED_TRACE(testing::Message() << n << "x" << m << " d=" << d);
        Matrix a = rng.UniformMatrix(n, d, -1.0, 1.0);
        Matrix b = rng.UniformMatrix(m, d, -1.0, 1.0);
        // Non-binary mask values, so that a reassociated product
        // (−P·(mb·b) for (−P·mb)·b) changes bits.
        const Matrix ma = Mul(rng.BernoulliMatrix(n, d, 0.7),
                              rng.UniformMatrix(n, d, 0.5, 1.5));
        const Matrix mb = Mul(rng.BernoulliMatrix(m, d, 0.7),
                              rng.UniformMatrix(m, d, 0.5, 1.5));
        Matrix plan = rng.UniformMatrix(n, m, 0.0, 1e-2);
        for (size_t t = 0; t < plan.size(); ++t) {
          if (rng.Bernoulli(0.3)) plan.data()[t] = 0.0;
        }
        // Every third column and fifth row of the plan is zero; the matching
        // rows of b and a hold non-finite values.
        for (size_t j = 1; j < m; j += 3) {
          for (size_t i = 0; i < n; ++i) plan(i, j) = 0.0;
          for (size_t k = 0; k < d; ++k) b(j, k) = specials[(j + k) % 3];
        }
        for (size_t i = 2; i < n; i += 5) {
          for (size_t j = 0; j < m; ++j) plan(i, j) = 0.0;
          for (size_t k = 0; k < d; ++k) a(i, k) = specials[(i + k) % 3];
        }
        const Matrix grad_a = MaskedOtGradWrtA(plan, a, ma, b, mb);
        const Matrix grad_b = MaskedOtGradWrtB(plan, a, ma, b, mb);
        EXPECT_TRUE(SameBytes(grad_a, PerEntryGradWrtA(plan, a, ma, b, mb)));
        const Matrix plan_t = Transpose(plan);
        EXPECT_TRUE(
            SameBytes(grad_b, PerEntryGradWrtA(plan_t, b, mb, a, ma)));
        // The B side's old definition: the A side on the transposed plan.
        EXPECT_TRUE(
            SameBytes(grad_b, MaskedOtGradWrtA(plan_t, b, mb, a, ma)));
      }
    }
  }
}

// The squared-distance cost as a plain per-entry loop: kernels::SquaredNorm
// norms, an ascending-p dot from +0.0, then std::max(·, 0.0).
Matrix PerEntryCost(const Matrix& a, const Matrix& b) {
  const size_t d = a.cols();
  Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double a2 = kernels::SquaredNorm(a.row_data(i), d);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double b2 = kernels::SquaredNorm(b.row_data(j), d);
      double dot = 0.0;
      for (size_t p = 0; p < d; ++p) dot += a(i, p) * b(j, p);
      out(i, j) = std::max(a2 + b2 - 2.0 * dot, 0.0);
    }
  }
  return out;
}

// PairwiseSquaredDistances against the per-entry loop, byte for byte, over
// row and column tails of the 4×16 tile (n, m ∈ {1, 3, 5, 17, 128, 131}),
// d ∈ {1, 3, 4, 9, 64, 65}, cross and self (a is b) costs, duplicate rows
// (exact zeros) and rows holding ±inf and NaN, at 1/2/4 threads.
TEST(KernelsCostOracle, PairwiseSquaredDistancesMatchPerEntryLoop) {
  const int saved_threads = runtime::NumThreads();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {kInf, -kInf, kNaN};
  const size_t sizes[] = {1, 3, 5, 17, 128, 131};
  Rng rng(29);
  for (const size_t d : {1, 3, 4, 9, 64, 65}) {
    for (const size_t n : sizes) {
      for (const size_t m : sizes) {
        for (const bool special : {false, true}) {
          SCOPED_TRACE(testing::Message() << n << "x" << m << " d=" << d
                                          << " special=" << special);
          Matrix a = rng.UniformMatrix(n, d, -2.0, 2.0);
          Matrix b = rng.UniformMatrix(m, d, -2.0, 2.0);
          // Duplicate rows: every third row of b copies a row of a, and
          // a's last row copies its first.
          for (size_t j = 0; j < m; j += 3) {
            for (size_t p = 0; p < d; ++p) b(j, p) = a(j % n, p);
          }
          for (size_t p = 0; p < d; ++p) a(n - 1, p) = a(0, p);
          if (special) {
            for (size_t i = 1; i < n; i += 4) a(i, i % d) = specials[i % 3];
            for (size_t j = 2; j < m; j += 5) {
              b(j, (j + 1) % d) = specials[(j + 1) % 3];
            }
          }
          const Matrix cross_ref = PerEntryCost(a, b);
          const Matrix self_ref = n == m ? PerEntryCost(a, a) : Matrix();
          for (const int threads : {1, 2, 4}) {
            runtime::SetNumThreads(threads);
            EXPECT_TRUE(SameBytes(PairwiseSquaredDistances(a, b), cross_ref))
                << threads << " threads";
            if (n == m) {
              EXPECT_TRUE(SameBytes(PairwiseSquaredDistances(a, a), self_ref))
                  << "self at " << threads << " threads";
            }
          }
        }
      }
    }
  }
  runtime::SetNumThreads(saved_threads);
}

// ColumnSums is Sum over a column copy.
TEST(KernelsVsOracle, ColumnSumsMatchSumOverColumnCopies) {
  Rng rng(31);
  for (size_t rows : {1, 7, 8, 9, 131}) {
    for (size_t cols : {1, 3, 5, 130}) {
      const Matrix mat = rng.NormalMatrix(rows, cols);
      std::vector<double> got(cols);
      kernels::ColumnSums(mat.data(), rows, cols, 0, cols, got.data());
      for (size_t c = 0; c < cols; ++c) {
        std::vector<double> column(rows);
        for (size_t i = 0; i < rows; ++i) column[i] = mat(i, c);
        EXPECT_EQ(std::bit_cast<uint64_t>(got[c]),
                  std::bit_cast<uint64_t>(kernels::Sum(column.data(), rows)))
            << rows << "x" << cols << " column " << c;
      }
    }
  }
}

TEST(KernelsVsOracle, BlockedMatMulsMatchNaiveOracle) {
  CHECK_PROPERTY("blocked_matmuls_vs_naive_oracle", [](uint64_t seed) {
    Rng rng(seed);
    // Sizes straddle the 4×4 tile boundaries so padded-panel and
    // leftover-row paths all get exercised.
    const size_t m = 1 + rng.UniformIndex(19);
    const size_t k = 1 + rng.UniformIndex(19);
    const size_t n = 1 + rng.UniformIndex(19);
    const Matrix a = rng.NormalMatrix(m, k, 0.0, 1.0);
    const Matrix b = rng.NormalMatrix(k, n, 0.0, 1.0);
    PROP_CHECK_MSG(MatMul(a, b).AllClose(testkit::NaiveMatMul(a, b), 1e-10),
                   "MatMul disagrees with the schoolbook oracle");
    const Matrix ta = rng.NormalMatrix(k, m, 0.0, 1.0);  // (ta)ᵀ·b is m×n
    PROP_CHECK_MSG(MatMulTransA(ta, b).AllClose(
                       testkit::NaiveMatMul(Transpose(ta), b), 1e-10),
                   "MatMulTransA disagrees with the schoolbook oracle");
    const Matrix bt = rng.NormalMatrix(n, k, 0.0, 1.0);
    PROP_CHECK_MSG(MatMulTransB(a, bt).AllClose(
                       testkit::NaiveMatMul(a, Transpose(bt)), 1e-10),
                   "MatMulTransB disagrees with the schoolbook oracle");
    return PropertyStatus::Pass();
  });
}

// The coordinate-major kernel pair returns the array form's double bit for
// bit, row by row — zero overlap (+inf), full overlap and random overlap,
// around and across the widths the index meets, over row ranges that
// straddle the index's scan chunk and start at nonzero offsets. Missing
// cells of the packed runs hold +0.0 while the array form sees the source
// values, so the +0.0 packing argument is exercised too.
TEST(KernelsVsOracle, MaskedDistanceCoordinateMajorMatchesArrayKernel) {
  CHECK_PROPERTY("kernels.masked_distance_coordinate_major", [](uint64_t seed) {
    Rng rng(seed);
    constexpr size_t kChunk = kernels::kMaskedScanChunk;
    constexpr size_t kRows = 1000 + 11;  // room for the largest range + offset
    for (const size_t d : {1, 6, 9, 16, 17, 63, 64, 65, 130}) {
      std::vector<double> xq(d), mq(d);
      for (size_t j = 0; j < d; ++j) xq[j] = rng.Uniform(-3.0, 3.0);
      // {complementary masks, all observed, random at several rates}
      for (int variant = 0; variant < 6; ++variant) {
        const double rates[] = {0.0, 0.5, 0.81, 0.95};
        const Matrix x = rng.UniformMatrix(kRows, d, -3.0, 3.0);
        Matrix m(kRows, d);
        for (size_t j = 0; j < d; ++j) {
          mq[j] = variant == 0   ? static_cast<double>(j % 2)
                  : variant == 1 ? 1.0
                  : rng.Bernoulli(rates[variant - 2]) ? 0.0
                                                       : 1.0;
        }
        for (size_t r = 0; r < kRows; ++r) {
          for (size_t j = 0; j < d; ++j) {
            m(r, j) = variant == 0   ? 1.0 - mq[j]
                      : variant == 1 ? 1.0
                      : rng.Bernoulli(rates[variant - 2]) ? 0.0
                                                           : 1.0;
          }
        }
        // Coordinate-major runs: coordinate j of row r at j * kRows + r.
        std::vector<double> cols(kRows * d, 0.0), weights(kRows * d, 0.0);
        for (size_t r = 0; r < kRows; ++r) {
          for (size_t j = 0; j < d; ++j) {
            if (m(r, j) != 1.0) continue;
            cols[j * kRows + r] = x(r, j);
            weights[j * kRows + r] = 1.0;
          }
        }
        const size_t offsets[] = {1, 3, 5, 7, 11};
        const size_t lengths[] = {1, kChunk - 1, kChunk, kChunk + 1, 1000};
        for (size_t t = 0; t < 5; ++t) {
          const size_t first = offsets[t], len = lengths[t];
          std::vector<double> acc(len, 0.0), cnt(len, 0.0), dist(len);
          for (size_t j = 0; j < d; ++j) {
            if (mq[j] != 1.0) continue;
            kernels::MaskedDistanceAccumulate(
                xq[j], &cols[j * kRows + first], &weights[j * kRows + first],
                len, acc.data(), cnt.data());
          }
          kernels::MaskedDistanceFinish(acc.data(), cnt.data(), len,
                                        dist.data());
          for (size_t i = 0; i < len; ++i) {
            const size_t r = first + i;
            const double array = kernels::MaskedRowDistance(
                xq.data(), mq.data(), x.row_data(r), m.row_data(r), d);
            PROP_CHECK_MSG(std::memcmp(&array, &dist[i], sizeof(double)) == 0,
                           "d=" << d << " variant " << variant << " row " << r
                                << " of range [" << first << ", "
                                << first + len << "): array " << array
                                << " vs coordinate-major " << dist[i]);
            if (variant == 0) {
              PROP_CHECK_MSG(dist[i] == kInf, "zero overlap is not +inf");
            }
          }
        }
      }
    }
    return PropertyStatus::Pass();
  });
}

// The kernel-level determinism contract: splitting a row range into chunks
// at any positions gives bit-identical output to one full-range call. This
// is the property that makes thread-count invariance automatic for every
// ParallelFor caller.
TEST(KernelsDeterminismTest, SinkhornKernelsAreChunkSplitInvariant) {
  Rng rng(7);
  const size_t rows = 23, cols = 57;
  const double lam = 1.7;
  const Matrix cost = rng.UniformMatrix(rows, cols, 0.0, 5.0);
  const Matrix fs = rng.UniformMatrix(1, rows, -1.0, 1.0);
  const Matrix gs = rng.UniformMatrix(1, cols, -1.0, 1.0);
  const Matrix wr = rng.UniformMatrix(1, rows, 0.0, 1.0);
  const Matrix wc = rng.UniformMatrix(1, cols, 0.0, 1.0);
  Matrix kern(rows, cols);
  kernels::GibbsKernelRows(cost.data(), 1.0 / lam, fs.data(), gs.data(), 0,
                           rows, cols, kern.data());
  std::vector<double> whole_rows(rows), whole_cols(cols);
  kernels::KernelRowSums(kern.data(), wc.data(), 0, rows, cols,
                         whole_rows.data());
  kernels::KernelColumnSums(kern.data(), wr.data(), rows, cols, 0, cols,
                            whole_cols.data());
  Matrix whole_plan = kern;
  double whole_c = 0.0, whole_l = 0.0;
  kernels::PlanRows(cost.data(), wr.data(), wc.data(), fs.data(), gs.data(),
                    0, rows, cols, whole_plan.data(), &whole_c, &whole_l);
  // Envelope gradient rows of `kern` as a plan, over its rows (stride cols,
  // 1) and over its columns (stride 1, cols), and its column totals.
  const size_t d = 9;
  const Matrix by = rng.UniformMatrix(cols, d, -1.0, 1.0);
  const Matrix my = rng.BernoulliMatrix(cols, d, 0.5);
  const Matrix bx = rng.UniformMatrix(rows, d, -1.0, 1.0);
  const Matrix mx = rng.BernoulliMatrix(rows, d, 0.5);
  Matrix whole_grad_rows(rows, d), whole_grad_cols(cols, d);
  kernels::MaskedGradRows(kern.data(), cols, 1, my.data(), by.data(), cols, d,
                          0, rows, whole_grad_rows.data());
  kernels::MaskedGradRows(kern.data(), 1, cols, mx.data(), bx.data(), rows, d,
                          0, cols, whole_grad_cols.data());
  std::vector<double> whole_totals(cols);
  kernels::ColumnSums(kern.data(), rows, cols, 0, cols, whole_totals.data());
  for (const size_t step : {1ul, 3ul, 8ul}) {
    Matrix split_kern(rows, cols);
    std::vector<double> split_rows(rows), split_cols(cols);
    Matrix split_plan = kern;
    double c = 0.0, l = 0.0;
    for (size_t r = 0; r < rows; r += step) {
      const size_t re = std::min(r + step, rows);
      kernels::GibbsKernelRows(cost.data(), 1.0 / lam, fs.data(), gs.data(),
                               r, re, cols, split_kern.data());
      kernels::KernelRowSums(kern.data(), wc.data(), r, re, cols,
                             split_rows.data());
      kernels::PlanRows(cost.data(), wr.data(), wc.data(), fs.data(),
                        gs.data(), r, re, cols, split_plan.data(), &c, &l);
    }
    Matrix split_grad_rows(rows, d), split_grad_cols(cols, d);
    std::vector<double> split_totals(cols);
    for (size_t r = 0; r < rows; r += step) {
      kernels::MaskedGradRows(kern.data(), cols, 1, my.data(), by.data(),
                              cols, d, r, std::min(r + step, rows),
                              split_grad_rows.data());
    }
    for (size_t j = 0; j < cols; j += step) {
      const size_t je = std::min(j + step, cols);
      kernels::KernelColumnSums(kern.data(), wr.data(), rows, cols, j, je,
                                split_cols.data());
      kernels::MaskedGradRows(kern.data(), 1, cols, mx.data(), bx.data(),
                              rows, d, j, je, split_grad_cols.data());
      kernels::ColumnSums(kern.data(), rows, cols, j, je,
                          split_totals.data());
    }
    EXPECT_TRUE(split_kern == kern) << "kernel split at step " << step;
    EXPECT_EQ(split_rows, whole_rows) << "row sums split at step " << step;
    EXPECT_EQ(split_cols, whole_cols) << "column sums split at step " << step;
    EXPECT_TRUE(split_plan == whole_plan) << "plan split at step " << step;
    EXPECT_TRUE(split_grad_rows == whole_grad_rows) << "step " << step;
    EXPECT_TRUE(split_grad_cols == whole_grad_cols) << "step " << step;
    EXPECT_EQ(split_totals, whole_totals) << "step " << step;
    // The sums continue from the caller's running value row by row, so a
    // split call sequence adds in the same order as one call.
    EXPECT_EQ(c, whole_c) << "cost sum split at step " << step;
    EXPECT_EQ(l, whole_l) << "log sum split at step " << step;
  }
}

// Bit-identity at 1/2/4 threads through every public op the new kernels
// back. operator== on Matrix is element-exact, so any reassociation across
// thread counts fails loudly.
TEST(KernelsDeterminismTest, PublicOpsAreThreadCountInvariant) {
  Rng rng(11);
  const Matrix a = rng.NormalMatrix(67, 43, 0.0, 1.0);
  const Matrix b = rng.NormalMatrix(43, 51, 0.0, 1.0);
  const Matrix bt = rng.NormalMatrix(51, 43, 0.0, 1.0);
  const Matrix at = rng.NormalMatrix(43, 67, 0.0, 1.0);
  const Matrix x = rng.UniformMatrix(60, 8, 0.0, 1.0);
  const Matrix sq = PairwiseSquaredDistances(x, x);
  SinkhornOptions opts;
  opts.lambda = 2.0;
  opts.max_iters = 20;
  opts.tol = 0.0;

  auto run_all = [&] {
    std::vector<Matrix> out;
    out.push_back(MatMul(a, b));
    out.push_back(MatMulTransA(at, b));
    out.push_back(MatMulTransB(a, bt));
    out.push_back(Transpose(a));
    out.push_back(Exp(a));
    out.push_back(Sigmoid(a));
    SinkhornSolution s = SolveSinkhorn(sq, opts);
    out.push_back(s.plan);
    Matrix fg(1, s.f.size() + s.g.size());
    for (size_t i = 0; i < s.f.size(); ++i) fg(0, i) = s.f[i];
    for (size_t j = 0; j < s.g.size(); ++j) fg(0, s.f.size() + j) = s.g[j];
    out.push_back(fg);
    return out;
  };

  runtime::SetNumThreads(1);
  const std::vector<Matrix> serial = run_all();
  for (const int t : {2, 4}) {
    runtime::SetNumThreads(t);
    const std::vector<Matrix> threaded = run_all();
    ASSERT_EQ(threaded.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(threaded[i] == serial[i])
          << "op " << i << " differs bit-wise at " << t << " threads";
    }
  }
  runtime::SetNumThreads(0);
}

TEST(KernelsArenaTest, ScratchGrowsAndNests) {
  {
    kernels::ScopedScratch outer(100);
    for (size_t i = 0; i < 100; ++i) outer.data()[i] = 1.0;
    {
      kernels::ScopedScratch inner(50);
      EXPECT_NE(inner.data(), outer.data());
      for (size_t i = 0; i < 50; ++i) inner.data()[i] = 2.0;
    }
    // Inner scope must not have clobbered the outer buffer.
    EXPECT_EQ(outer.data()[0], 1.0);
    EXPECT_EQ(outer.data()[99], 1.0);
  }
  // Re-acquiring at depth 0 with a larger size reuses/grows the same slot.
  kernels::ScopedScratch again(1000);
  for (size_t i = 0; i < 1000; ++i) again.data()[i] = 3.0;
  EXPECT_EQ(again.data()[999], 3.0);
}

}  // namespace
}  // namespace scis
