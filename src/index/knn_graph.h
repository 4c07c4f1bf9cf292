// The GINN similarity graph, built from the neighbor lists of an AnnIndex.
//
// Every row's neighbors come from BuildKnnIndex (ann_index.h): an exact
// one-leaf scan up to kExactKnnMaxRows rows, a budgeted tree search above.
// The index never returns a row at +inf (no co-observed coordinate), so a
// row that shares no observed coordinate with any other row has no
// neighbors and keeps only its self loop; such a row carries no distance
// information to link it by.
#ifndef SCIS_INDEX_KNN_GRAPH_H_
#define SCIS_INDEX_KNN_GRAPH_H_

#include "tensor/sparse.h"

namespace scis::index {

// Symmetrized kNN graph over the rows of `x` under the mask-aware distance,
// with self loops and symmetric normalization D^{-1/2}(A + I)D^{-1/2}.
// k is clamped to n − 1. Deterministic, bit-identical at any thread count.
SparseMatrix BuildKnnGraph(const Matrix& x, const Matrix& mask, size_t k);

}  // namespace scis::index

#endif  // SCIS_INDEX_KNN_GRAPH_H_
