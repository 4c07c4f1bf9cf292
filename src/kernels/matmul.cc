#include "kernels/matmul.h"

#include "kernels/dispatch.h"

namespace scis::kernels {

namespace {

// Adds acc (a full register tile) into `w` columns of the output rows.
// w < kColTile only on the zero-padded last panel.
inline void StoreTileRow(const double* __restrict acc, double* __restrict orow,
                         size_t w) {
  for (size_t c = 0; c < w; ++c) orow[c] += acc[c];
}

// Four doubles: one AVX2 register, a pair of SSE2 registers in the default
// clone.
typedef double V4 __attribute__((vector_size(32)));
constexpr size_t kV4Width = 4;
constexpr size_t kDistChunks = kDistColTile / kV4Width;

// std::max(v, 0.0), spelled as its definition so a NaN or a −0.0 passes
// through: the epilogue of every squared-distance entry.
inline double ClampDistance(double a2, double b2, double dot) {
  const double v = a2 + b2 - 2.0 * dot;
  return v < 0.0 ? 0.0 : v;
}

// R rows from i against C four-column chunks from column j: each
// accumulator lane is one ascending-p chain from +0.0, and the store
// applies ClampDistance lane-wise. The unroll pragmas keep acc in
// registers; without them the array spills to the stack.
template <size_t R, size_t C>
__attribute__((always_inline)) inline void DistanceTile(
    const double* __restrict a, const double* __restrict bt,
    const double* __restrict a2, const double* __restrict b2,
    double* __restrict out, size_t i, size_t j, size_t k, size_t m) {
  V4 acc[R][C] = {};
  const double* __restrict bp = bt + j;
  for (size_t p = 0; p < k; ++p, bp += m) {
    V4 bv[C];
#pragma GCC unroll 4
    for (size_t c = 0; c < C; ++c) {
      __builtin_memcpy(&bv[c], bp + c * kV4Width, sizeof(V4));
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const double s = a[(i + r) * k + p];
      const V4 av = {s, s, s, s};
#pragma GCC unroll 4
      for (size_t c = 0; c < C; ++c) acc[r][c] += av * bv[c];
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    const double s = a2[i + r];
    const V4 a2v = {s, s, s, s};
#pragma GCC unroll 4
    for (size_t c = 0; c < C; ++c) {
      V4 b2v;
      __builtin_memcpy(&b2v, b2 + j + c * kV4Width, sizeof(V4));
      const V4 v = a2v + b2v - 2.0 * acc[r][c];
      const V4 d = v < V4{} ? V4{} : v;
      __builtin_memcpy(out + (i + r) * m + j + c * kV4Width, &d, sizeof(V4));
    }
  }
}

// All m columns of rows [i, i + R): full kDistColTile tiles, then one tile
// of the remaining whole chunks, then the last m % 4 columns as scalar
// chains read down bt's columns.
template <size_t R>
__attribute__((always_inline)) inline void DistanceRowTile(
    const double* __restrict a, const double* __restrict bt,
    const double* __restrict a2, const double* __restrict b2,
    double* __restrict out, size_t i, size_t k, size_t m) {
  size_t j = 0;
  for (; j + kDistColTile <= m; j += kDistColTile) {
    DistanceTile<R, kDistChunks>(a, bt, a2, b2, out, i, j, k, m);
  }
  switch ((m - j) / kV4Width) {
    case 3:
      DistanceTile<R, 3>(a, bt, a2, b2, out, i, j, k, m);
      break;
    case 2:
      DistanceTile<R, 2>(a, bt, a2, b2, out, i, j, k, m);
      break;
    case 1:
      DistanceTile<R, 1>(a, bt, a2, b2, out, i, j, k, m);
      break;
    default:
      break;
  }
  j += (m - j) / kV4Width * kV4Width;
  for (; j < m; ++j) {
    for (size_t r = 0; r < R; ++r) {
      const double* __restrict arow = a + (i + r) * k;
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += arow[p] * bt[p * m + j];
      out[(i + r) * m + j] = ClampDistance(a2[i + r], b2[j], s);
    }
  }
}

}  // namespace

SCIS_KERNEL_CLONES
void PackPanels(const double* __restrict b, size_t k, size_t n, size_t t0,
                size_t t1, double* __restrict bp) {
  for (size_t t = t0; t < t1; ++t) {
    double* __restrict dst = bp + t * k * kColTile;
    const size_t j0 = t * kColTile;
    const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
    for (size_t p = 0; p < k; ++p) {
      const double* __restrict src = b + p * n + j0;
      size_t c = 0;
      for (; c < w; ++c) dst[p * kColTile + c] = src[c];
      for (; c < kColTile; ++c) dst[p * kColTile + c] = 0.0;
    }
  }
}

SCIS_KERNEL_CLONES
void MatMulRowsPacked(const double* __restrict a, const double* __restrict bp,
                      double* __restrict out, size_t i0, size_t i1, size_t k,
                      size_t n) {
  const size_t panels = NumPanels(n);
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict arows = a + i * k;
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = bp + t * k * kColTile;
      double acc[kRowTile][kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double* __restrict bv = bt + p * kColTile;
        for (size_t r = 0; r < kRowTile; ++r) {
          const double av = arows[r * k + p];
          for (size_t c = 0; c < kColTile; ++c) acc[r][c] += av * bv[c];
        }
      }
      const size_t j0 = t * kColTile;
      const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
      for (size_t r = 0; r < kRowTile; ++r) {
        StoreTileRow(acc[r], out + (i + r) * n + j0, w);
      }
    }
  }
  // Leftover rows (i1 − i < kRowTile), one output row per tile.
  for (; i < i1; ++i) {
    const double* __restrict arow = a + i * k;
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = bp + t * k * kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        const double* __restrict bv = bt + p * kColTile;
        for (size_t c = 0; c < kColTile; ++c) acc[c] += av * bv[c];
      }
      const size_t j0 = t * kColTile;
      const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
      StoreTileRow(acc, out + i * n + j0, w);
    }
  }
}

SCIS_KERNEL_CLONES
void MatMulTransARowsPacked(const double* __restrict a, size_t ma,
                            const double* __restrict bp,
                            double* __restrict out, size_t i0, size_t i1,
                            size_t k, size_t n) {
  const size_t panels = NumPanels(n);
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = bp + t * k * kColTile;
      double acc[kRowTile][kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double* __restrict av = a + p * ma + i;  // a(p, i..i+3)
        const double* __restrict bv = bt + p * kColTile;
        for (size_t r = 0; r < kRowTile; ++r) {
          for (size_t c = 0; c < kColTile; ++c) acc[r][c] += av[r] * bv[c];
        }
      }
      const size_t j0 = t * kColTile;
      const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
      for (size_t r = 0; r < kRowTile; ++r) {
        StoreTileRow(acc[r], out + (i + r) * n + j0, w);
      }
    }
  }
  for (; i < i1; ++i) {
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = bp + t * k * kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = a[p * ma + i];
        const double* __restrict bv = bt + p * kColTile;
        for (size_t c = 0; c < kColTile; ++c) acc[c] += av * bv[c];
      }
      const size_t j0 = t * kColTile;
      const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
      StoreTileRow(acc, out + i * n + j0, w);
    }
  }
}

SCIS_KERNEL_CLONES
void MatMulTransBRows(const double* __restrict a, const double* __restrict b,
                      double* __restrict out, size_t i0, size_t i1, size_t k,
                      size_t n) {
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict arows = a + i * k;
    size_t j = 0;
    for (; j + kColTile <= n; j += kColTile) {
      const double* __restrict brows = b + j * k;
      // Each acc[r][c] is a single sequential chain over p — the exact
      // association of the historic per-element dot — but the 16 chains run
      // interleaved, which is what buys the throughput.
      double acc[kRowTile][kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        for (size_t r = 0; r < kRowTile; ++r) {
          const double av = arows[r * k + p];
          for (size_t c = 0; c < kColTile; ++c) {
            acc[r][c] += av * brows[c * k + p];
          }
        }
      }
      for (size_t r = 0; r < kRowTile; ++r) {
        double* __restrict orow = out + (i + r) * n + j;
        for (size_t c = 0; c < kColTile; ++c) orow[c] = acc[r][c];
      }
    }
    for (; j < n; ++j) {  // leftover columns: plain dots
      const double* __restrict brow = b + j * k;
      for (size_t r = 0; r < kRowTile; ++r) {
        const double* __restrict arow = arows + r * k;
        double s = 0.0;
        for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
        out[(i + r) * n + j] = s;
      }
    }
  }
  for (; i < i1; ++i) {  // leftover rows
    const double* __restrict arow = a + i * k;
    for (size_t j = 0; j < n; ++j) {
      const double* __restrict brow = b + j * k;
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      out[i * n + j] = s;
    }
  }
}

SCIS_KERNEL_CLONES
void SquaredDistanceRows(const double* __restrict a,
                         const double* __restrict bt,
                         const double* __restrict a2,
                         const double* __restrict b2, double* __restrict out,
                         size_t i0, size_t i1, size_t k, size_t m) {
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    DistanceRowTile<kRowTile>(a, bt, a2, b2, out, i, k, m);
  }
  for (; i < i1; ++i) DistanceRowTile<1>(a, bt, a2, b2, out, i, k, m);
}

SCIS_KERNEL_CLONES
void TransposeScaleRows(const double* __restrict src, size_t rows, size_t cols,
                        double s, double* __restrict dst, size_t r0,
                        size_t r1) {
  // 32×32 blocks: one block reads 32 source cache lines and writes 32
  // destination lines, so both sides stay resident while the block flips.
  constexpr size_t kBlock = 32;
  for (size_t ib = r0; ib < r1; ib += kBlock) {
    const size_t ie = ib + kBlock < r1 ? ib + kBlock : r1;
    for (size_t jb = 0; jb < cols; jb += kBlock) {
      const size_t je = jb + kBlock < cols ? jb + kBlock : cols;
      for (size_t i = ib; i < ie; ++i) {
        const double* __restrict srow = src + i * cols;
        for (size_t j = jb; j < je; ++j) {
          dst[j * rows + i] = s * srow[j];
        }
      }
    }
  }
}

}  // namespace scis::kernels
