// The mask-aware row metric behind the src/index ANN tree, which every
// neighbor-based path (kNN imputation, GINN's similarity graph, retrieval
// in serving) searches: squared Euclidean distance over co-observed
// coordinates, rescaled by the co-observed count. Two rows with no
// coordinate observed in common are at +inf — the index never returns
// them; its callers skip them or fall back (column means, a self loop).
//
// Array form (MaskedRowDistance): one row pair, a single sequential pass
// over the coordinates with a branch-free {0,1}-mask product. It is
// bit-identical to the branched `if (ma && mb)` loop it replaced (adding a
// +0.0 contribution is exact) and is the reference the other forms match.
// BruteForceSearch, the reference the index is tested against, uses it.
//
// Coordinate-major form (MaskedDistanceAccumulate + MaskedDistanceFinish):
// one query against a contiguous range of rows stored coordinate-major —
// for each coordinate j, the values of all rows in one run, with a parallel
// run of their {0,1} weights. Missing cells hold +0.0 and weight 0. The
// caller zeroes acc and cnt, accumulates the query's observed coordinates
// in ascending j, then finishes. Rows sit in SIMD lanes, so the loop
// vectorizes without any cross-lane sum, and a sparse query costs its
// observed coordinates rather than d. The result is bit-identical to the
// array form, row by row, whenever the array form's inputs are finite:
//   - a coordinate the query does not observe is skipped; the array form
//     adds w · diff · diff with w = 0 there, i.e. (0 · diff) · diff = +0.0,
//     and adding +0.0 to the non-negative accumulator is exact;
//   - at an observed coordinate the row's weight w equals the array form's
//     ma · mb (= 1 · w), and the term is the same w · diff · diff with the
//     same diff = q_j − x_j. When the row misses j, x_j is the packed +0.0
//     rather than the source value, so diff is finite and the term is
//     again an exact +0.0, as in the array form;
//   - so each row's accumulator takes the same nonzero terms in the same
//     ascending order, and the count is the same exact sum of 1.0 weights.
//
// List form (MaskedDistanceScatter + MaskedDistanceFinish): the same pass
// over a tile that keeps only its observed cells — for each coordinate j,
// the tile positions and values of the rows that observe j. The caller
// zeroes acc and cnt, scatters the query's observed coordinates in
// ascending j, then finishes. It is bit-identical to the coordinate-major
// form, row by row, under the same finiteness condition:
//   - a row that misses j gets no term at j; the coordinate-major form adds
//     w · diff · diff = +0.0 there, which leaves its non-negative
//     accumulator unchanged, and adds w = 0 to its count;
//   - a row that observes j gets diff · diff and 1.0, where the
//     coordinate-major form adds w · diff · diff = (1 · diff) · diff, the
//     same double, and w = 1.0;
//   - scattering in ascending j, each row still takes its co-observed
//     terms in ascending order, so its accumulator and count are the same.
// This holds at the default ISA and in the AVX2 clone, where no FMA
// contraction happens (kernels/dispatch.h). Under SCIS_NATIVE
// (-march=native) the compiler may contract acc + w·diff·diff into an FMA.
// The forms then stay identical only while all three keep the same
// product-then-add expression (the list form's fma(diff, diff, acc) equals
// fma(1 · diff, diff, acc)), so change them together.
#ifndef SCIS_KERNELS_MASKED_DISTANCE_H_
#define SCIS_KERNELS_MASKED_DISTANCE_H_

#include <cstddef>
#include <cstdint>

namespace scis::kernels {

// Mean squared difference of a and b over coordinates observed in both
// ({0,1} masks ma, mb); +inf when no coordinate is co-observed.
double MaskedRowDistance(const double* xa, const double* ma, const double* xb,
                         const double* mb, size_t d);

// Most rows per accumulate/finish pass in the index scan (its tiles hold
// one leaf or at most this many rows, so a list tile's row positions fit in
// one byte): acc, cnt and the distances of one pass stay in L1 while the
// query's coordinates stream through them.
// Single-thread SearchBatch times on an Intel Xeon (AVX2 clone) at 64 to
// 1,024 rows were within about 7% of each other; 256 was fastest on the
// 1,000 x 64, 81%-missing serving shape (EXPERIMENTS.md).
inline constexpr size_t kMaskedScanChunk = 256;

// One observed query coordinate q against n rows' values x (coordinate-
// major run, +0.0 where missing) and {0,1} weights w:
//   acc[i] += w[i] · (q − x[i])²,  cnt[i] += w[i].
void MaskedDistanceAccumulate(double q, const double* x, const double* w,
                              size_t n, double* acc, double* cnt);

// List form of the same step: one observed query coordinate q against the
// n rows of a tile that observe it, given as their tile positions pos
// (distinct, below kMaskedScanChunk) and values x:
//   acc[pos[e]] += (q − x[e])²,  cnt[pos[e]] += 1.
void MaskedDistanceScatter(double q, const uint8_t* pos, const double* x,
                           size_t n, double* acc, double* cnt);

// dist[i] = +inf when cnt[i] == 0, else acc[i] / cnt[i].
void MaskedDistanceFinish(const double* acc, const double* cnt, size_t n,
                          double* dist);

// Same metric against a fully observed row `c` (a k-means centroid, a
// complete reference row): averages over a's observed coordinates alone;
// +inf when a has no observed coordinate.
double MaskedRowToDenseDistance(const double* xa, const double* ma,
                                const double* c, size_t d);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_MASKED_DISTANCE_H_
