// Fused linear-layer kernels: the forward product X·W + b in one
// register-tiled pass over the packed matmul layout, and the matching
// backward products.
//
// Forward reuses the kernels/matmul micro-kernel structure verbatim — the
// kRowTile × kColTile accumulator tile streams the full inner dimension in
// ascending-p order — and adds the bias at the tile store, so one layer's
// product is one pass over the output instead of two (MatMul,
// AddRowBroadcast) with an intermediate matrix. The activation is not
// applied here: the caller runs kernels::ActInPlace over the same chunk of
// output rows right after (autodiff FusedLinearForward). linear.cc is
// compiled with the very-cheap vectorizer cost model, which suits the
// register tiles but leaves any per-element activation loop scalar, so
// activation loops live in kernels/elementwise.cc (src/kernels/CMakeLists.txt).
//
// Determinism: an accumulator that starts at +0.0 can never end at -0.0, so
// `acc + b` is bit-identical to the unfused `(0 += acc) + b` store of the
// historic composition at any thread count (callers chunk output rows
// with RowAlignedGrain, as for the plain matmul), and the activation pass
// reads that same rounded double.
#ifndef SCIS_KERNELS_LINEAR_H_
#define SCIS_KERNELS_LINEAR_H_

#include <cstddef>

namespace scis::kernels {

// y rows [i0, i1) = x·W + bias, with x row-major (rows × k), the k×n
// weight matrix packed into wp (kernels/matmul.h PackPanels layout), and
// bias a length-n row. Overwrites y (no zeroing needed).
void LinearForwardRows(const double* x, const double* wp, const double* bias,
                       double* y, size_t i0, size_t i1, size_t k, size_t n);

// Widest output for which the direct (pack-free) row kernels below apply.
// The register tile walks 4-column blocks, so any width works; the bound
// marks where the weight matrix stops being cache-resident (64 columns at
// the paper's layer depths keeps W under ~100 KB) and the packed-panel walk
// of kernels/matmul.h starts to win back through contiguous panel reuse.
inline constexpr size_t kSmallNMax = 64;

// LinearForwardRows for n ≤ kSmallNMax with W row-major and unpacked: one
// accumulator row per output row streams the full inner dimension in the
// same ascending-p order as the packed kernel, so results are bit-identical
// to it (and to the unfused composition) — it just skips the per-step pack
// pass and the padded panel columns.
void LinearForwardRowsSmallN(const double* x, const double* w,
                             const double* bias, double* y, size_t i0,
                             size_t i1, size_t k, size_t n);

// out rows [i0, i1) += aᵀ·b for n ≤ kSmallNMax with b row-major and
// unpacked — the dW = Xᵀ·dz backward without packing dz first. a is the
// k × ma matrix read column-i-strided (as MatMulTransARowsPacked does);
// ascending-p accumulation into a zeroed out keeps it bit-identical to the
// packed variant.
void MatMulTransARowsSmallN(const double* a, size_t ma, const double* b,
                            double* out, size_t i0, size_t i1, size_t k,
                            size_t n);

// out rows [i0, i1) = a·bᵀ for n ≤ kSmallNMax output columns, a (rows × k)
// and b (n × k) both row-major — the dX = dz·Wᵀ backward. Each output
// element is one ascending-p dot of an a row with a b row, the exact
// association of MatMulTransBRows (kernels/matmul.h); the register tile
// just runs 16 of those chains at once.
void MatMulTransBRowsSmallN(const double* a, const double* b, double* out,
                            size_t i0, size_t i1, size_t k, size_t n);

}  // namespace scis::kernels

#endif  // SCIS_KERNELS_LINEAR_H_
