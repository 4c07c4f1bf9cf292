#include "common/file_publish.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace scis {
namespace {

// Writes all n bytes, retrying short writes and EINTR.
bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// A sibling of `path` no other writer (thread or process) picks: same
// directory, so the final rename stays within one filesystem.
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

// fsync of the directory holding `path`, making a rename into it durable.
// EINVAL means the filesystem has nothing to sync for directories.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0 && err != EINVAL) {
    return Status::IoError("fsync " + dir + " failed: " + std::strerror(err));
  }
  return Status::OK();
}

}  // namespace

Status PublishFile(const std::string& path,
                   const std::vector<std::string_view>& pieces) {
  const std::string tmp = TempPathFor(path);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  auto fail = [&](const std::string& what) {
    const std::string err = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError(what + " " + tmp + ": " + err);
  };
  for (const std::string_view piece : pieces) {
    if (!WriteAll(fd, piece.data(), piece.size())) {
      return fail("write failed:");
    }
  }
  if (::fsync(fd) != 0) return fail("fsync failed:");
  const int close_rc = ::close(fd);
  fd = -1;
  if (close_rc != 0) return fail("close failed:");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename to " + path + " failed:");
  }
  return SyncParentDir(path);
}

}  // namespace scis
