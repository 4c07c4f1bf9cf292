#include "kernels/masked_distance.h"

#include <bit>
#include <limits>

namespace scis::kernels {

double MaskedRowDistance(const double* xa, const double* ma, const double* xb,
                         const double* mb, size_t d) {
  double acc = 0.0;
  double overlap = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = ma[j] * mb[j];  // 1 iff co-observed
    const double diff = xa[j] - xb[j];
    acc += w * diff * diff;
    overlap += w;
  }
  if (overlap == 0.0) return std::numeric_limits<double>::infinity();
  return acc / overlap;
}

void MaskBits(const double* mask, size_t d, uint64_t* words_out) {
  for (size_t w = 0; w < MaskWords(d); ++w) words_out[w] = 0;
  for (size_t j = 0; j < d; ++j) {
    if (mask[j] == 1.0) words_out[j / 64] |= uint64_t{1} << (j % 64);
  }
}

namespace {

// Up to this many coordinates a row is narrow (see MaskedRowDistance). Set
// from interleaved single-thread bench/index_build_query runs (d = 6..64,
// 5..81% missing, Intel Xeon, 4 vCPU): on rows of 15% missing the walk
// cost 1.10-1.39x the array form's search time at d <= 12 but 0.96-1.03x
// from d = 16 on, and the narrow loop never cost more than 1.04x.
constexpr size_t kNarrowCols = 16;

// Rows of more than kNarrowCols coordinates: per word, a straight loop over
// a run of co-observed coordinates from bit 0 (every coordinate of a dense
// row), else a walk over the set bits of a & b in ascending order. Kept out
// of line so the narrow path's call stays as lean as the array form's.
__attribute__((noinline)) double WideMaskedRowDistance(
    const double* xa, const uint64_t* bits_a, const double* xb,
    const uint64_t* bits_b, size_t words) {
  constexpr double w = 1.0;  // the array form's weight on a visited term
  double acc = 0.0;
  size_t overlap = 0;  // counted in the loops: baseline x86-64 has no popcnt
  for (size_t k = 0; k < words; ++k) {
    uint64_t both = bits_a[k] & bits_b[k];
    const double* a = xa + 64 * k;
    const double* b = xb + 64 * k;
    if ((both & (both + 1)) == 0) {
      const int run = std::countr_one(both);
      for (int j = 0; j < run; ++j) {
        const double diff = a[j] - b[j];
        acc += w * diff * diff;
      }
      overlap += static_cast<size_t>(run);
      continue;
    }
    do {
      const int j = std::countr_zero(both);
      const double diff = a[j] - b[j];
      acc += w * diff * diff;
      ++overlap;
      both &= both - 1;  // clear the lowest set bit: ascending j
    } while (both != 0);
  }
  if (overlap == 0) return std::numeric_limits<double>::infinity();
  return acc / static_cast<double>(overlap);
}

}  // namespace

double MaskedRowDistance(const double* xa, const uint64_t* bits_a,
                         const double* xb, const uint64_t* bits_b, size_t d) {
  if (d > kNarrowCols) {
    return WideMaskedRowDistance(xa, bits_a, xb, bits_b, MaskWords(d));
  }
  // Narrow rows: the array form's own loop, two coordinates at a time with
  // their {0,1} weights looked up from two bits of a & b. A walk over the
  // set bits would save a few additions but pay a mispredicted exit.
  static constexpr double kPairWeights[4][2] = {
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  uint64_t both = bits_a[0] & bits_b[0];
  double acc = 0.0;
  double overlap = 0.0;
  size_t j = 0;
  for (; j + 2 <= d; j += 2, both >>= 2) {
    const double* w = kPairWeights[both & 3];
    const double diff0 = xa[j] - xb[j];
    const double diff1 = xa[j + 1] - xb[j + 1];
    acc += w[0] * diff0 * diff0;
    acc += w[1] * diff1 * diff1;
    overlap += w[0];
    overlap += w[1];
  }
  if (j < d) {
    const double w = kPairWeights[both & 1][0];
    const double diff = xa[j] - xb[j];
    acc += w * diff * diff;
    overlap += w;
  }
  if (overlap == 0.0) return std::numeric_limits<double>::infinity();
  return acc / overlap;
}

double MaskedRowToDenseDistance(const double* xa, const double* ma,
                                const double* c, size_t d) {
  double acc = 0.0;
  double observed = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double w = ma[j];
    const double diff = xa[j] - c[j];
    acc += w * diff * diff;
    observed += w;
  }
  if (observed == 0.0) return std::numeric_limits<double>::infinity();
  return acc / observed;
}

}  // namespace scis::kernels
