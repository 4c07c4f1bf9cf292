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
void GramUpperRows(const double* __restrict a, double* __restrict out,
                   size_t i0, size_t i1, size_t k, size_t n) {
  size_t i = i0;
  for (; i + kRowTile <= i1; i += kRowTile) {
    const double* __restrict arows = a + i * k;
    size_t j = i;
    for (; j + kColTile <= n; j += kColTile) {
      const double* __restrict brows = a + j * k;
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
      const double* __restrict brow = a + j * k;
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
    for (size_t j = i; j < n; ++j) {
      const double* __restrict brow = a + j * k;
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      out[i * n + j] = s;
    }
  }
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
