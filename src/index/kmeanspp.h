// Seeded k-means++ over dense rows: the landmark selection behind the ANN
// vocabulary tree (ann_index.cc, masked metric).
//
// Determinism contract: KMeansLandmarks is a pure function of
// (points, k, seed, lloyd_iters). Seeding draws from a single Rng in a fixed
// order, Lloyd assignment runs under ParallelFor with a shape-derived grain
// and the centroid update is an ordered ParallelReduce, so the returned
// centroids are bit-identical at any thread count — the same contract every
// other subsystem carries.
#ifndef SCIS_INDEX_KMEANSPP_H_
#define SCIS_INDEX_KMEANSPP_H_

#include <cstdint>

#include "tensor/matrix.h"

namespace scis::index {

// splitmix64-style stream splitter: the seed for child `salt` of a
// component seeded with `s`. Depends only on (s, salt), never on execution
// order or thread count. Shared by the tree build (per-node child seeds)
// and the landmark pipeline (per-stage seeds).
uint64_t MixSeed(uint64_t s, uint64_t salt);

// k-means++ seeding plus `lloyd_iters` Lloyd passes over the rows of
// `points` (dense, squared-Euclidean metric). Returns a (k × d) centroid
// matrix; k is clamped to points.rows(). Empty clusters keep their seed
// centroid, matching the tree build's convention.
Matrix KMeansLandmarks(const Matrix& points, size_t k, uint64_t seed,
                       int lloyd_iters);

}  // namespace scis::index

#endif  // SCIS_INDEX_KMEANSPP_H_
