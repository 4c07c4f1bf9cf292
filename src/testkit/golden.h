// Golden-file regression helpers. A golden is a checked-in text artifact
// (tests/golden/<name>) compared byte-for-byte against freshly computed
// content; SCIS_UPDATE_GOLDENS=1 rewrites the files instead of comparing.
// Content must be deterministic — fixed seeds, values printed at
// max_digits10, no wall-clock — so regeneration is bit-exact on rerun.
//
// Also provides JsonShape(), which reduces a JSON document to its sorted
// key-path/type skeleton ("config.epochs:number") so structural regressions
// in run reports are caught without pinning volatile values, and
// MatrixDigest(), the FNV-1a digest that pins a matrix's exact bits in a
// committed constant.
#ifndef SCIS_TESTKIT_GOLDEN_H_
#define SCIS_TESTKIT_GOLDEN_H_

#include <cstdint>
#include <string>

#include "tensor/matrix.h"

namespace scis::testkit {

struct GoldenMatch {
  bool ok = false;
  bool updated = false;  // true when SCIS_UPDATE_GOLDENS=1 rewrote the file
  std::string message;   // first difference, or the write error
};

// Directory holding golden files: $SCIS_GOLDEN_DIR if set, else the
// compiled-in tests/golden path.
std::string GoldenDir();

bool UpdateGoldensRequested();  // SCIS_UPDATE_GOLDENS=1

// Compares `content` against golden `name` (a filename under GoldenDir()).
// In update mode, writes the file (creating directories is the caller's
// job — tests/golden is checked in) and reports ok.
GoldenMatch MatchGolden(const std::string& name, const std::string& content);

// Sorted, deduplicated "path:type" lines for a JSON document; array
// elements collapse to "[]". Returns an "<invalid json: ...>" line on
// malformed input. Handles the subset emitted by obs::RunReport / the
// metrics registry (objects, arrays, strings, numbers, bools, null).
std::string JsonShape(const std::string& json);

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;

// FNV-1a 64 over the little-endian bytes of each double of `m`, chained
// from `h`: digesting two matrices in turn equals digesting their
// concatenated bytes.
uint64_t MatrixDigest(const Matrix& m, uint64_t h = kFnvOffset);

}  // namespace scis::testkit

#endif  // SCIS_TESTKIT_GOLDEN_H_
