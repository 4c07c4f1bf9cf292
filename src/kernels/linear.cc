#include "kernels/linear.h"

#include "kernels/dispatch.h"
#include "kernels/matmul.h"

namespace scis::kernels {

namespace {

// Bias add at the tile store; w < kColTile only on the last panel.
inline void StoreBiasTileRow(const double* __restrict acc,
                             const double* __restrict bias,
                             double* __restrict orow, size_t w) {
  for (size_t c = 0; c < w; ++c) orow[c] = acc[c] + bias[c];
}

}  // namespace

SCIS_KERNEL_CLONES
void LinearForwardRows(const double* __restrict x, const double* __restrict wp,
                       const double* __restrict bias, double* __restrict y,
                       size_t i0, size_t i1, size_t k, size_t n) {
  // Same tile walk as MatMulRowsPacked (kernels/matmul.cc); only the store
  // differs, so every accumulator keeps the historic ascending-p association.
  const size_t panels = NumPanels(n);
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict arows = x + i * k;
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = wp + t * k * kColTile;
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
        StoreBiasTileRow(acc[r], bias + j0, y + (i + r) * n + j0, w);
      }
    }
  }
  for (; i < i1; ++i) {  // leftover rows, one output row per tile
    const double* __restrict arow = x + i * k;
    for (size_t t = 0; t < panels; ++t) {
      const double* __restrict bt = wp + t * k * kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        const double* __restrict bv = bt + p * kColTile;
        for (size_t c = 0; c < kColTile; ++c) acc[c] += av * bv[c];
      }
      const size_t j0 = t * kColTile;
      const size_t w = n - j0 < kColTile ? n - j0 : kColTile;
      StoreBiasTileRow(acc, bias + j0, y + i * n + j0, w);
    }
  }
}

SCIS_KERNEL_CLONES
void LinearForwardRowsSmallN(const double* __restrict x,
                             const double* __restrict w,
                             const double* __restrict bias,
                             double* __restrict y, size_t i0, size_t i1,
                             size_t k, size_t n) {
  // Per-element association matches the packed kernel exactly: acc starts at
  // 0.0 and streams p ascending; only the memory walk differs (row-major W,
  // no pack pass, no padded columns). Column blocks keep the accumulator
  // width a compile-time constant so the tile lives in registers; the tail
  // block (w < kColTile) computes only its real columns.
  static_assert(kRowTile == 4 && kColTile == 4,
                "hand-unrolled tile below assumes a 4x4 register tile");
  const size_t nb = n / kColTile * kColTile;
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict a0 = x + i * k;
    const double* __restrict a1 = a0 + k;
    const double* __restrict a2 = a1 + k;
    const double* __restrict a3 = a2 + k;
    for (size_t j0 = 0; j0 < nb; j0 += kColTile) {
      // 16 named accumulators: the SLP vectorizer keeps the whole tile in
      // registers, which the array-indexed form fails to do (the row loop
      // is never fully unrolled and the tile spills to the stack).
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      const double* __restrict bv = w + j0;
      for (size_t p = 0; p < k; ++p, bv += n) {
        const double b0 = bv[0], b1 = bv[1], b2 = bv[2], b3 = bv[3];
        const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        c00 += v0 * b0; c01 += v0 * b1; c02 += v0 * b2; c03 += v0 * b3;
        c10 += v1 * b0; c11 += v1 * b1; c12 += v1 * b2; c13 += v1 * b3;
        c20 += v2 * b0; c21 += v2 * b1; c22 += v2 * b2; c23 += v2 * b3;
        c30 += v3 * b0; c31 += v3 * b1; c32 += v3 * b2; c33 += v3 * b3;
      }
      const double acc[kRowTile][kColTile] = {{c00, c01, c02, c03},
                                              {c10, c11, c12, c13},
                                              {c20, c21, c22, c23},
                                              {c30, c31, c32, c33}};
      for (size_t r = 0; r < kRowTile; ++r) {
        StoreBiasTileRow(acc[r], bias + j0, y + (i + r) * n + j0, kColTile);
      }
    }
    if (nb < n) {
      const size_t tw = n - nb;
      double acc[kRowTile][kColTile] = {};
      const double* __restrict bv = w + nb;
      for (size_t p = 0; p < k; ++p, bv += n) {
        const double v[kRowTile] = {a0[p], a1[p], a2[p], a3[p]};
        for (size_t r = 0; r < kRowTile; ++r) {
          for (size_t c = 0; c < tw; ++c) acc[r][c] += v[r] * bv[c];
        }
      }
      for (size_t r = 0; r < kRowTile; ++r) {
        StoreBiasTileRow(acc[r], bias + nb, y + (i + r) * n + nb, tw);
      }
    }
  }
  for (; i < i1; ++i) {  // leftover rows
    const double* __restrict arow = x + i * k;
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
      const size_t tw = n - j0 < kColTile ? n - j0 : kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = arow[p];
        const double* __restrict bv = w + p * n + j0;
        for (size_t c = 0; c < tw; ++c) acc[c] += av * bv[c];
      }
      StoreBiasTileRow(acc, bias + j0, y + i * n + j0, tw);
    }
  }
}

SCIS_KERNEL_CLONES
void MatMulTransARowsSmallN(const double* __restrict a, size_t ma,
                            const double* __restrict b,
                            double* __restrict out, size_t i0, size_t i1,
                            size_t k, size_t n) {
  static_assert(kRowTile == 4 && kColTile == 4,
                "hand-unrolled tile below assumes a 4x4 register tile");
  const size_t nb = n / kColTile * kColTile;
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    for (size_t j0 = 0; j0 < nb; j0 += kColTile) {
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      const double* __restrict av = a + i;        // a(p, i..i+3)
      const double* __restrict bv = b + j0;
      for (size_t p = 0; p < k; ++p, av += ma, bv += n) {
        const double b0 = bv[0], b1 = bv[1], b2 = bv[2], b3 = bv[3];
        const double v0 = av[0], v1 = av[1], v2 = av[2], v3 = av[3];
        c00 += v0 * b0; c01 += v0 * b1; c02 += v0 * b2; c03 += v0 * b3;
        c10 += v1 * b0; c11 += v1 * b1; c12 += v1 * b2; c13 += v1 * b3;
        c20 += v2 * b0; c21 += v2 * b1; c22 += v2 * b2; c23 += v2 * b3;
        c30 += v3 * b0; c31 += v3 * b1; c32 += v3 * b2; c33 += v3 * b3;
      }
      const double acc[kRowTile][kColTile] = {{c00, c01, c02, c03},
                                              {c10, c11, c12, c13},
                                              {c20, c21, c22, c23},
                                              {c30, c31, c32, c33}};
      for (size_t r = 0; r < kRowTile; ++r) {
        double* __restrict orow = out + (i + r) * n + j0;
        for (size_t c = 0; c < kColTile; ++c) orow[c] += acc[r][c];
      }
    }
    if (nb < n) {
      const size_t tw = n - nb;
      double acc[kRowTile][kColTile] = {};
      const double* __restrict av = a + i;
      const double* __restrict bv = b + nb;
      for (size_t p = 0; p < k; ++p, av += ma, bv += n) {
        for (size_t r = 0; r < kRowTile; ++r) {
          for (size_t c = 0; c < tw; ++c) acc[r][c] += av[r] * bv[c];
        }
      }
      for (size_t r = 0; r < kRowTile; ++r) {
        double* __restrict orow = out + (i + r) * n + nb;
        for (size_t c = 0; c < tw; ++c) orow[c] += acc[r][c];
      }
    }
  }
  for (; i < i1; ++i) {  // leftover rows
    for (size_t j0 = 0; j0 < n; j0 += kColTile) {
      const size_t tw = n - j0 < kColTile ? n - j0 : kColTile;
      double acc[kColTile] = {};
      for (size_t p = 0; p < k; ++p) {
        const double av = a[p * ma + i];
        const double* __restrict bv = b + p * n + j0;
        for (size_t c = 0; c < tw; ++c) acc[c] += av * bv[c];
      }
      double* __restrict orow = out + i * n + j0;
      for (size_t c = 0; c < tw; ++c) orow[c] += acc[c];
    }
  }
}

SCIS_KERNEL_CLONES
void MatMulTransBRowsSmallN(const double* __restrict a,
                            const double* __restrict b,
                            double* __restrict out, size_t i0, size_t i1,
                            size_t k, size_t n) {
  static_assert(kRowTile == 4 && kColTile == 4,
                "hand-unrolled tile below assumes a 4x4 register tile");
  const size_t nb = n / kColTile * kColTile;
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict a0 = a + i * k;
    const double* __restrict a1 = a0 + k;
    const double* __restrict a2 = a1 + k;
    const double* __restrict a3 = a2 + k;
    for (size_t j0 = 0; j0 < nb; j0 += kColTile) {
      const double* __restrict r0 = b + j0 * k;
      const double* __restrict r1 = r0 + k;
      const double* __restrict r2 = r1 + k;
      const double* __restrict r3 = r2 + k;
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      for (size_t p = 0; p < k; ++p) {
        const double b0 = r0[p], b1 = r1[p], b2 = r2[p], b3 = r3[p];
        const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        c00 += v0 * b0; c01 += v0 * b1; c02 += v0 * b2; c03 += v0 * b3;
        c10 += v1 * b0; c11 += v1 * b1; c12 += v1 * b2; c13 += v1 * b3;
        c20 += v2 * b0; c21 += v2 * b1; c22 += v2 * b2; c23 += v2 * b3;
        c30 += v3 * b0; c31 += v3 * b1; c32 += v3 * b2; c33 += v3 * b3;
      }
      double* __restrict o0 = out + i * n + j0;
      o0[0] = c00; o0[1] = c01; o0[2] = c02; o0[3] = c03;
      double* __restrict o1 = o0 + n;
      o1[0] = c10; o1[1] = c11; o1[2] = c12; o1[3] = c13;
      double* __restrict o2 = o1 + n;
      o2[0] = c20; o2[1] = c21; o2[2] = c22; o2[3] = c23;
      double* __restrict o3 = o2 + n;
      o3[0] = c30; o3[1] = c31; o3[2] = c32; o3[3] = c33;
    }
    for (size_t j = nb; j < n; ++j) {  // leftover columns: plain dots
      const double* __restrict brow = b + j * k;
      const double* __restrict ar[kRowTile] = {a0, a1, a2, a3};
      for (size_t r = 0; r < kRowTile; ++r) {
        double s = 0.0;
        for (size_t p = 0; p < k; ++p) s += ar[r][p] * brow[p];
        out[(i + r) * n + j] = s;
      }
    }
  }
  for (; i < i1; ++i) {  // leftover rows: plain dots
    const double* __restrict arow = a + i * k;
    for (size_t j = 0; j < n; ++j) {
      const double* __restrict brow = b + j * k;
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      out[i * n + j] = s;
    }
  }
}

}  // namespace scis::kernels
