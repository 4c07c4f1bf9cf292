// Scoped trace spans with a Chrome trace-event JSON exporter.
//
//   SCIS_TRACE_SPAN("sinkhorn.iterate");
//
// records a complete ("ph":"X") event into a per-thread buffer when tracing
// is enabled; `WriteTrace(path)` flushes every thread's buffer into a file
// loadable by chrome://tracing / https://ui.perfetto.dev.
//
// Cost model: with tracing disabled (the default) a span is one relaxed
// atomic load and a branch — no clock reads, no allocation — so the macro
// can stay in hot paths permanently. Enabled spans cost two steady_clock
// reads and a vector push into a thread-local buffer (no locks); buffers
// register themselves once per thread and survive thread exit by retiring
// into a global list.
#ifndef SCIS_OBS_TRACE_H_
#define SCIS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace scis::obs {

namespace internal {
extern std::atomic<bool> g_trace_enabled;
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns);
uint64_t TraceNowNs();
}  // namespace internal

// Turns span recording on/off. Spans opened while disabled are dropped even
// if tracing is enabled before they close.
void SetTraceEnabled(bool enabled);
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

// Names the calling thread in the exported trace ("M"/"thread_name"
// metadata event). Safe to call with tracing disabled; the name sticks for
// later enables. The runtime's pool workers call this on startup.
void SetCurrentThreadName(const std::string& name);

// Writes every recorded span (all threads) as Chrome trace-event JSON:
// {"traceEvents":[...]}. Timestamps are microseconds from the first
// recorded event. The file is published atomically (PublishFile): on
// failure any previous file at `path` is intact.
Status WriteTrace(const std::string& path);

// Drops all recorded spans (bench/test epoch boundary).
void ClearTrace();

// Total spans currently buffered across threads, and spans dropped because
// a thread buffer hit its cap.
uint64_t TraceSpanCount();
uint64_t TraceDroppedCount();

// RAII span. `name` must be a string literal (or otherwise outlive the
// trace), matching the Chrome trace-event convention of interned names.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(TraceEnabled() ? name : nullptr),
        start_ns_(name_ ? internal::TraceNowNs() : 0) {}
  ~TraceSpan() {
    if (name_) internal::RecordSpan(name_, start_ns_, internal::TraceNowNs());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_;
};

}  // namespace scis::obs

#define SCIS_TRACE_CONCAT_INNER_(a, b) a##b
#define SCIS_TRACE_CONCAT_(a, b) SCIS_TRACE_CONCAT_INNER_(a, b)
#define SCIS_TRACE_SPAN(name) \
  ::scis::obs::TraceSpan SCIS_TRACE_CONCAT_(_scis_trace_span_, __LINE__)(name)

#endif  // SCIS_OBS_TRACE_H_
