// The mask-aware row metric shared by every neighbor-based path (kNN
// imputation, GINN's similarity graph, the src/index ANN tree): squared
// Euclidean distance over co-observed coordinates, rescaled by the
// co-observed count. Two rows with no coordinate observed in common are at
// +inf — callers decide how to handle that (skip, sentinel, fallback).
//
// Array form: a single sequential pass over the coordinates with a
// branch-free {0,1}-mask product, which is bit-identical to the branched
// `if (ma && mb)` loop it replaced (adding a +0.0 contribution is exact)
// while letting the compiler if-convert and vectorize the body. Callers that
// hold only double masks (BruteForceSearch, BuildKnnGraph, k-means) use it.
//
// Bitset form: masks packed by MaskBits into 64-coordinate words, one bit
// per observed coordinate. On rows wider than 16 coordinates the distance
// visits only the coordinates both rows observe — the set bits of a & b, in
// ascending order, or a straight loop when they run unbroken from the
// word's first coordinate — so a sparse pair costs its handful of
// co-observed coordinates instead of d. Narrower rows take the array form's
// own loop with the {0,1} weights read from the bits: there a walk saves
// a few additions but pays a mispredicted loop exit, and on well-observed
// rows it searched up to 1.39x slower than the array form (the measured
// cutoff is in masked_distance.cc). Sparse narrow rows would favour the
// walk (0.6-0.7x at 81% missing); the width cutoff gives that up. Either
// way the result is bit-identical to the array form for finite values:
//   - every coordinate the array form adds but the walk skips contributes
//     w * diff * diff with w = 0, i.e. (0 · diff) · diff = +0.0, and adding
//     +0.0 to the non-negative accumulator is exact;
//   - the visited coordinates add the same w * diff * diff (w = 1) in the
//     same order, so the accumulator takes the same sequence of values;
//   - the co-observed count is the number of set bits of a & b, which
//     equals the array form's exact sum of 1.0 weights.
// This holds at the default ISA, where no FMA contraction happens. Under
// SCIS_NATIVE (-march=native) the compiler may contract acc + w·diff·diff
// into an FMA; the forms then stay identical only while all of them keep
// the same `w * diff * diff` expression, so change them together.
#ifndef SCIS_KERNELS_MASKED_DISTANCE_H_
#define SCIS_KERNELS_MASKED_DISTANCE_H_

#include <cstddef>
#include <cstdint>

namespace scis::kernels {

// Mean squared difference of a and b over coordinates observed in both
// ({0,1} masks ma, mb); +inf when no coordinate is co-observed.
double MaskedRowDistance(const double* xa, const double* ma, const double* xb,
                         const double* mb, size_t d);

// 64-bit words holding a d-coordinate observed-coordinate bitset.
constexpr size_t MaskWords(size_t d) { return (d + 63) / 64; }

// Packs a {0,1} mask into MaskWords(d) words: bit j % 64 of word j / 64 is
// set iff mask[j] == 1.0; bits past d are clear.
void MaskBits(const double* mask, size_t d, uint64_t* words_out);

// MaskedRowDistance over bitset masks (MaskBits(ma, d) and MaskBits(mb, d)):
// bit-identical to the array form, at a cost proportional to the
// co-observed coordinates rather than to d on rows wider than 16.
double MaskedRowDistance(const double* xa, const uint64_t* bits_a,
                         const double* xb, const uint64_t* bits_b, size_t d);

// Same metric against a fully observed row `c` (a k-means centroid, a
// complete reference row): averages over a's observed coordinates alone;
// +inf when a has no observed coordinate.
double MaskedRowToDenseDistance(const double* xa, const double* ma,
                                const double* c, size_t d);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_MASKED_DISTANCE_H_
