// Cache-blocked, register-tiled matmul kernels, and the squared-distance
// cost kernel that shares their association (SquaredDistanceRows, below).
//
// Layout: the right-hand matrix is packed once per multiply into
// column-panel order — panel t holds columns [t·kColTile, (t+1)·kColTile)
// interleaved per row, the last panel zero-padded — so the micro-kernel's
// inner loop reads both operands contiguously. The micro-kernel computes a
// kRowTile × kColTile block of the output in registers, streaming the full
// inner dimension, then adds the block into the output once (register
// tiling: ~0.5 memory ops per multiply-add instead of the ~3 of the old
// row-streaming ikj loop).
//
// Determinism and drift: every output element still accumulates its k
// products in ascending-p order, one product at a time, starting from the
// output's prior value — exactly the association of the historic ikj
// kernel — so the blocked kernels are bit-identical to the old ones for
// finite inputs at any thread count. (The one observable difference: the
// old kernel skipped rows of b where a(i,p) == 0, so a 0·inf/0·NaN that
// used to be skipped now propagates, which matches the naive oracle.)
// Callers parallelize over output rows; chunk grains must be rounded with
// RowAlignedGrain so tile boundaries are shape-derived.
#ifndef SCIS_KERNELS_MATMUL_H_
#define SCIS_KERNELS_MATMUL_H_

#include <cstddef>

namespace scis::kernels {

// Micro-kernel tile: kRowTile × kColTile accumulators live in registers.
// 4×4 doubles = 16 independent FMA chains — enough to hide FP latency and
// fill 2-wide SSE2 pipes, while leaving registers for the operand loads.
inline constexpr size_t kRowTile = 4;
inline constexpr size_t kColTile = 4;

inline size_t NumPanels(size_t n) { return (n + kColTile - 1) / kColTile; }

// Doubles needed for the packed image of a k×n right-hand side.
inline size_t PackedSize(size_t k, size_t n) {
  return NumPanels(n) * kColTile * k;
}

// Rounds a ParallelFor grain up to a kRowTile multiple so every chunk
// boundary is also a tile boundary (tile layout stays a pure function of
// the matrix shape).
inline size_t RowAlignedGrain(size_t grain) {
  return (grain + kRowTile - 1) / kRowTile * kRowTile;
}

// Packs panels [t0, t1) of the row-major b (k×n) into bp (PackedSize
// doubles, laid out panel-major). The last panel is zero-padded to
// kColTile. Pure copy — panels are independent, so packing parallelizes.
void PackPanels(const double* b, size_t k, size_t n, size_t t0, size_t t1,
                double* bp);

// out rows [i0, i1) += a·b, with a row-major (rows × k) and b packed.
void MatMulRowsPacked(const double* a, const double* bp, double* out,
                      size_t i0, size_t i1, size_t k, size_t n);

// out rows [i0, i1) += aᵀ·b, with a row-major (k × ma) and b packed; out is
// ma × n. Reading a(p, i..i+3) is contiguous, so no packing of a is needed.
void MatMulTransARowsPacked(const double* a, size_t ma, const double* bp,
                            double* out, size_t i0, size_t i1, size_t k,
                            size_t n);

// out(i, j) = Σ_p a(i,p)·b(j,p) for rows [i0, i1): the a·bᵀ product. Both
// operands stream rows contiguously, so this one needs no packing; each
// output element is a scalar sequential dot (bit-identical to the historic
// dot-form kernel) with 16 independent chains per tile.
void MatMulTransBRows(const double* a, const double* b, double* out, size_t i0,
                      size_t i1, size_t k, size_t n);

// Column tile of SquaredDistanceRows: 16 doubles, four 4-wide vectors.
inline constexpr size_t kDistColTile = 16;

// The squared-distance cost rows [i0, i1) between the rows of a (n × k,
// row-major) and the m rows of b, with b read coordinate-major (bt = bᵀ,
// k × m) and a2, b2 their squared row norms:
//
//   out(i, j) = max(a2[i] + b2[j] − 2·Σ_p a(i,p)·bt(p,j), 0),
//
// where max keeps std::max(v, 0.0) semantics (v < 0 ? 0 : v, so NaN and
// −0.0 pass through). A register tile of kRowTile rows × kDistColTile
// columns broadcasts one a value per coordinate against contiguous bt
// rows, so every load vectorizes at any k. Each dot is still one chain over
// p in ascending order, starting from +0.0 — the association of
// MatMulTransBRows — and the epilogue is the same expression, so the result
// equals MatMulTransBRows followed by that epilogue bit for bit, in any
// row split.
void SquaredDistanceRows(const double* a, const double* bt, const double* a2,
                         const double* b2, double* out, size_t i0, size_t i1,
                         size_t k, size_t m);

// dst(j, i) = s · src(i, j) for source rows [r0, r1), cache-blocked. Chunks
// write disjoint dst columns, so the source-row range parallelizes.
void TransposeScaleRows(const double* src, size_t rows, size_t cols, double s,
                        double* dst, size_t r0, size_t r1);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_MATMUL_H_
