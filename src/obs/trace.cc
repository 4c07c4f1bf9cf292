#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "common/file_publish.h"
#include "obs/json_writer.h"

namespace scis::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

struct SpanEvent {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

// Hard cap per thread so a pathological run cannot exhaust memory; spans
// past the cap are counted as dropped.
constexpr size_t kMaxSpansPerThread = 1 << 20;

struct ThreadBuffer {
  // Guards spans/name/dropped. Only the owning thread appends, so this is
  // uncontended except while a flush reads other threads' buffers.
  std::mutex mu;
  int tid = 0;
  std::string name;
  std::vector<SpanEvent> spans;
  uint64_t dropped = 0;
};

// Global trace state: live per-thread buffers plus buffers retired by
// exited threads (pool workers from a SetNumThreads rebuild, say).
struct TraceState {
  std::mutex mu;  // guards the two lists; per-buffer data is behind buf.mu
  int next_tid = 1;
  std::vector<ThreadBuffer*> live;
  std::vector<std::unique_ptr<ThreadBuffer>> retired;
};

TraceState& State() {
  static TraceState* s = new TraceState();  // leaked: outlives all threads
  return *s;
}

// Owns the thread's buffer; on thread exit ownership moves into the retired
// list so WriteTrace still sees spans from finished worker threads.
struct ThreadBufferOwner {
  std::unique_ptr<ThreadBuffer> buf = std::make_unique<ThreadBuffer>();

  ThreadBufferOwner() {
    TraceState& st = State();
    std::lock_guard<std::mutex> lock(st.mu);
    buf->tid = st.next_tid++;
    st.live.push_back(buf.get());
  }

  ~ThreadBufferOwner() {
    TraceState& st = State();
    std::lock_guard<std::mutex> lock(st.mu);
    for (size_t i = 0; i < st.live.size(); ++i) {
      if (st.live[i] == buf.get()) {
        st.live.erase(st.live.begin() + i);
        break;
      }
    }
    st.retired.push_back(std::move(buf));
  }
};

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBufferOwner owner;
  return *owner.buf;
}

void WriteBufferEvents(JsonWriter& w, ThreadBuffer& buf, uint64_t origin_ns) {
  std::lock_guard<std::mutex> lock(buf.mu);
  if (!buf.name.empty()) {
    w.BeginObject();
    w.Key("ph");
    w.String("M");
    w.Key("name");
    w.String("thread_name");
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(buf.tid);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String(buf.name);
    w.EndObject();
    w.EndObject();
  }
  for (const SpanEvent& s : buf.spans) {
    w.BeginObject();
    w.Key("ph");
    w.String("X");
    w.Key("name");
    w.String(s.name);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(buf.tid);
    w.Key("ts");
    w.Double(static_cast<double>(s.start_ns - origin_ns) / 1e3);
    w.Key("dur");
    w.Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.EndObject();
  }
}

uint64_t MinStartLocked(ThreadBuffer& buf) {
  std::lock_guard<std::mutex> lock(buf.mu);
  uint64_t origin = UINT64_MAX;
  for (const SpanEvent& s : buf.spans) {
    origin = std::min(origin, s.start_ns);
  }
  return origin;
}

}  // namespace

namespace internal {

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  ThreadBuffer& buf = LocalBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.spans.size() >= kMaxSpansPerThread) {
    ++buf.dropped;
    return;
  }
  buf.spans.push_back(SpanEvent{name, start_ns, end_ns});
}

}  // namespace internal

void SetTraceEnabled(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void SetCurrentThreadName(const std::string& name) {
  ThreadBuffer& buf = LocalBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.name = name;
}

Status WriteTrace(const std::string& path) {
  TraceState& st = State();
  JsonWriter w;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    uint64_t origin = UINT64_MAX;
    for (ThreadBuffer* b : st.live) {
      origin = std::min(origin, MinStartLocked(*b));
    }
    for (const auto& b : st.retired) {
      origin = std::min(origin, MinStartLocked(*b));
    }
    if (origin == UINT64_MAX) origin = 0;

    w.BeginObject();
    w.Key("traceEvents");
    w.BeginArray();
    for (ThreadBuffer* b : st.live) WriteBufferEvents(w, *b, origin);
    for (const auto& b : st.retired) WriteBufferEvents(w, *b, origin);
    w.EndArray();
    w.Key("displayTimeUnit");
    w.String("ms");
    w.EndObject();
  }

  return PublishFile(path, {w.str(), "\n"});
}

void ClearTrace() {
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  for (ThreadBuffer* b : st.live) {
    std::lock_guard<std::mutex> block(b->mu);
    b->spans.clear();
    b->dropped = 0;
  }
  st.retired.clear();
}

uint64_t TraceSpanCount() {
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  uint64_t n = 0;
  for (ThreadBuffer* b : st.live) {
    std::lock_guard<std::mutex> block(b->mu);
    n += b->spans.size();
  }
  for (const auto& b : st.retired) {
    std::lock_guard<std::mutex> block(b->mu);
    n += b->spans.size();
  }
  return n;
}

uint64_t TraceDroppedCount() {
  TraceState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  uint64_t n = 0;
  for (ThreadBuffer* b : st.live) {
    std::lock_guard<std::mutex> block(b->mu);
    n += b->dropped;
  }
  for (const auto& b : st.retired) {
    std::lock_guard<std::mutex> block(b->mu);
    n += b->dropped;
  }
  return n;
}

}  // namespace scis::obs
