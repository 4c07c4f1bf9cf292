// Atomic, durable file publication: the one path by which persisted
// artifacts (v3 checkpoints, ANN indexes) replace a file on disk.
#ifndef SCIS_COMMON_FILE_PUBLISH_H_
#define SCIS_COMMON_FILE_PUBLISH_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace scis {

// Writes `pieces`, in order, as the new content of `path`. The bytes go to
// a temp sibling of `path` (same directory, so the rename stays within one
// filesystem), which is fsync-ed, closed and renamed over `path`; then the
// directory is fsync-ed. A reader — including one still holding an mmap of
// the old file, which keeps the old inode — sees either the old file or the
// new one, never a torn or truncated file. On error the temp file is
// removed and `path` is untouched.
Status PublishFile(const std::string& path,
                   const std::vector<std::string_view>& pieces);

}  // namespace scis

#endif  // SCIS_COMMON_FILE_PUBLISH_H_
