#include "common/logging.h"

#include <cstdio>
#include <mutex>

namespace scis {

namespace {
// Serializes emission only; formatting happens before the lock is taken.
std::mutex g_emit_mu;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p)
    if (*p == '/') base = p + 1;
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::string line = stream_.str();
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(g_emit_mu);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace internal
}  // namespace scis
