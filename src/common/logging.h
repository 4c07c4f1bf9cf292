// Minimal leveled logger writing to stderr. Thread-safe: each message is
// formatted off-lock into its own buffer, then emitted as a single
// mutex-guarded fwrite, so lines from the runtime's worker threads never
// interleave. Every message is emitted; there is no level threshold.
#ifndef SCIS_COMMON_LOGGING_H_
#define SCIS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace scis {

enum class LogLevel { kInfo, kWarning, kError };

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();  // emits the accumulated message

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace scis

#define SCIS_LOG(level)                                        \
  ::scis::internal::LogMessage(::scis::LogLevel::k##level,     \
                               __FILE__, __LINE__)

#endif  // SCIS_COMMON_LOGGING_H_
