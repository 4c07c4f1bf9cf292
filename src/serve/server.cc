#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/io.h"
#include "serve/wire.h"

namespace scis::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;

// A connection whose unread responses exceed this many buffered bytes is
// dropped (slow-reader protection; responses are never discarded silently
// while the peer keeps up).
constexpr size_t kMaxWriteBufferBytes = size_t{64} << 20;
// How long Shutdown waits for in-flight responses to flush.
constexpr double kDrainTimeoutMs = 5000;

struct ServerMetrics {
  obs::Counter* connections;
  obs::Counter* protocol_errors;
  obs::Counter* truncated_streams;
  obs::Counter* slow_reader_drops;
  obs::Gauge* open_connections;
};

ServerMetrics& Metrics() {
  static ServerMetrics m = [] {
    obs::Registry& reg = obs::Registry::Global();
    ServerMetrics sm;
    sm.connections = reg.GetCounter("serve.connections");
    sm.protocol_errors = reg.GetCounter("serve.protocol_errors");
    sm.truncated_streams = reg.GetCounter("serve.truncated_streams");
    sm.slow_reader_drops = reg.GetCounter("serve.slow_reader_drops");
    sm.open_connections = reg.GetGauge("serve.open_connections");
    return sm;
  }();
  return m;
}

}  // namespace

// Per-connection state machine. The read side feeds the incremental
// FrameReader; the write side is (pending ordered replies) -> (one flat
// write buffer the socket drains at its own pace).
struct ImputationServer::Conn {
  int fd = -1;
  FrameReader reader;
  std::vector<uint8_t> scratch;  // recv staging, reused across events

  // Replies must leave in request order, but batches complete in any order
  // (they overlap on the runtime pool): each request takes a sequence
  // number at dispatch and its reply waits in `pending` until every
  // earlier reply has been staged.
  uint64_t next_seq = 0;       // assigned to the next request
  uint64_t next_to_send = 0;   // lowest seq not yet moved to `out`
  std::map<uint64_t, std::vector<uint8_t>> pending;

  std::vector<uint8_t> out;  // flat write buffer (partial-write queue)
  size_t out_off = 0;        // bytes of `out` already written
  size_t in_flight = 0;      // dispatched imputes not yet completed

  bool want_write = false;   // EPOLLOUT currently armed
  bool read_closed = false;  // peer EOF or protocol error: stop reading
  bool closing = false;      // close once replies flush and in_flight == 0

  size_t unsent() const { return out.size() - out_off; }
};

ImputationServer::ImputationServer(
    std::shared_ptr<const ImputationEngine> engine, ServerOptions opts)
    : ImputationServer(
          std::vector<std::shared_ptr<const ImputationEngine>>{
              std::move(engine)},
          std::move(opts)) {}

ImputationServer::ImputationServer(
    std::vector<std::shared_ptr<const ImputationEngine>> models,
    ServerOptions opts)
    : opts_(std::move(opts)), models_(std::move(models)) {
  SCIS_CHECK(!models_.empty());
  for (const auto& m : models_) SCIS_CHECK(m != nullptr);
}

ImputationServer::~ImputationServer() { Shutdown(); }

Status ImputationServer::Start() {
  if (listen_fd_ >= 0) return Status::AlreadyExists("server already started");
  std::vector<HostedModel> hosted;
  hosted.reserve(models_.size());
  for (const std::shared_ptr<const ImputationEngine>& engine : models_) {
    const size_t cols = engine->num_cols();
    for (const HostedModel& other : hosted) {
      if (other.cols == cols) {
        return Status::InvalidArgument(
            "two models serve " + std::to_string(cols) +
            "-column schemas; request routing is by column count, so fleet "
            "schema widths must be unique");
      }
    }
    HostedModel model;
    model.cols = cols;
    model.slot = std::make_shared<EngineSlot>(engine);
    model.queue = std::make_unique<BatchQueue>(model.slot, opts_.queue);
    hosted.push_back(std::move(model));
  }
  hosted_ = std::move(hosted);
  models_.clear();  // the slots own the engines now

  SCIS_ASSIGN_OR_RETURN(int listen_fd,
                        ListenTcp(opts_.host, opts_.port, 128, &port_));
  listen_fd_ = listen_fd;

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError("epoll_create1: " + std::string(strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::IoError("eventfd: " + std::string(strerror(errno)));
  }
  reserve_fd_ = OpenReserveFd();

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IoError("epoll_ctl(listener): " +
                           std::string(strerror(errno)));
  }
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IoError("epoll_ctl(wakeup): " +
                           std::string(strerror(errno)));
  }

  loop_thread_ = std::thread([this] {
    obs::SetCurrentThreadName("serve-loop");
    EventLoop();
  });
  return Status::OK();
}

Status ImputationServer::HotSwap(
    std::shared_ptr<const ImputationEngine> next) {
  if (hosted_.empty()) return Status::Unavailable("server not started");
  if (next == nullptr) return Status::InvalidArgument("null engine");
  for (HostedModel& model : hosted_) {
    if (model.cols == next->num_cols()) {
      return model.slot->Swap(std::move(next));
    }
  }
  return Status::NotFound("no hosted model serves a " +
                          std::to_string(next->num_cols()) +
                          "-column schema; hot-swap cannot add models");
}

Result<BatchQueue*> ImputationServer::Route(size_t cols) const {
  for (const HostedModel& model : hosted_) {
    if (model.cols == cols) return model.queue.get();
  }
  std::string widths;
  for (const HostedModel& model : hosted_) {
    if (!widths.empty()) widths += ", ";
    widths += std::to_string(model.cols);
  }
  return Status::InvalidArgument("request has " + std::to_string(cols) +
                                 " columns; hosted models expect " + widths);
}

void ImputationServer::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void ImputationServer::HandleAccept() {
  ServerMetrics& m = Metrics();
  // Edge-triggered listener: drain the accept queue completely.
  for (;;) {
    const AcceptResult r = AcceptConnection(listen_fd_, &reserve_fd_);
    if (r.kind == AcceptResult::kWouldBlock) return;
    if (r.kind == AcceptResult::kClosed) return;
    if (r.kind == AcceptResult::kShed) continue;  // queue may hold more

    auto conn = std::make_unique<Conn>();
    conn->fd = r.fd;
    const uint64_t id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, r.fd, &ev) != 0) {
      ::close(r.fd);  // never leak the accepted fd
      continue;
    }
    m.connections->Add();
    conns_[id] = std::move(conn);
    m.open_connections->Set(static_cast<double>(conns_.size()));
  }
}

void ImputationServer::StageReply(Conn* conn, uint64_t seq,
                                  const Frame& frame) {
  std::vector<uint8_t> bytes;
  AppendFrame(frame, &bytes);
  conn->pending[seq] = std::move(bytes);
}

bool ImputationServer::ProcessFrames(uint64_t id, Conn* conn) {
  ServerMetrics& m = Metrics();
  for (;;) {
    Result<std::optional<Frame>> next = conn->reader.Next();
    if (!next.ok()) {
      // Malformed stream (oversized length, unknown type): report once at
      // the tail of the ordered replies, then hang up.
      m.protocol_errors->Add();
      StageReply(conn, conn->next_seq++, MakeErrorFrame(next.status()));
      return false;
    }
    if (!next.value().has_value()) return true;  // need more bytes
    const Frame frame = std::move(*next.value());
    switch (frame.type) {
      case FrameType::kPing:
        StageReply(conn, conn->next_seq++, Frame{FrameType::kPong, {}});
        break;
      case FrameType::kImputeRequest: {
        SCIS_TRACE_SPAN("serve.request");
        const uint64_t seq = conn->next_seq++;
        Result<Matrix> rows = DecodeMatrixPayload(frame.payload);
        if (!rows.ok()) {
          StageReply(conn, seq, MakeErrorFrame(rows.status()));
          break;
        }
        Result<BatchQueue*> queue = Route(rows.value().cols());
        if (!queue.ok()) {
          StageReply(conn, seq, MakeErrorFrame(queue.status()));
          break;
        }
        // Continuous-learning tap: admitted rows feed the sample store off
        // the execution path (bounded + non-blocking; see ServerOptions).
        if (opts_.sample_hook) opts_.sample_hook(rows.value());
        conn->in_flight++;
        // The callback runs on a pool worker (or inline on admission
        // failure): it may only touch the completion queue and the wakeup
        // eventfd, never the loop's connection state.
        queue.value()->ImputeAsync(
            std::move(rows.value()), [this, id, seq](Result<Matrix> result) {
              {
                std::lock_guard<std::mutex> lock(completions_mu_);
                completions_.push_back({id, seq, std::move(result)});
              }
              WakeLoop();
            });
        break;
      }
      case FrameType::kShutdown: {
        StageReply(conn, conn->next_seq++, Frame{FrameType::kShutdownAck, {}});
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
        cv_shutdown_.notify_all();
        break;
      }
      default:
        // Server-bound streams should not carry response-side frames.
        m.protocol_errors->Add();
        StageReply(conn, conn->next_seq++,
                   MakeErrorFrame(Status::InvalidArgument(
                       "unexpected frame type on a request stream")));
        break;
    }
  }
}

void ImputationServer::FlushConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();

  // Stage in-order replies into the flat write buffer.
  while (!conn->pending.empty() &&
         conn->pending.begin()->first == conn->next_to_send) {
    std::vector<uint8_t>& bytes = conn->pending.begin()->second;
    conn->out.insert(conn->out.end(), bytes.begin(), bytes.end());
    conn->pending.erase(conn->pending.begin());
    conn->next_to_send++;
  }

  if (conn->unsent() > 0) {
    if (!WriteSome(conn->fd, conn->out, &conn->out_off).ok()) {
      CloseConn(id);  // dead peer; pending completions are dropped by id
      return;
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
    } else if (conn->out_off > (1u << 20)) {
      // Compact the consumed prefix so a long-lived slow reader cannot
      // hold the high-water mark forever.
      conn->out.erase(conn->out.begin(),
                      conn->out.begin() + static_cast<ptrdiff_t>(conn->out_off));
      conn->out_off = 0;
    }
  }

  // Slow-reader protection: unbounded buffering would let one stalled peer
  // absorb the server's memory.
  if (conn->unsent() > kMaxWriteBufferBytes) {
    Metrics().slow_reader_drops->Add();
    CloseConn(id);
    return;
  }

  // EPOLLOUT interest tracks "bytes are stuck": armed only while the
  // socket pushed back, so the loop is never woken by a writable socket it
  // has nothing to say to.
  const bool want = conn->unsent() > 0;
  if (want != conn->want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | (want ? EPOLLOUT : 0u);
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->want_write = want;
  }

  const bool drained =
      conn->pending.empty() && conn->unsent() == 0 && conn->in_flight == 0;
  if (drained && (conn->closing || conn->read_closed)) CloseConn(id);
}

void ImputationServer::HandleConnEvent(uint64_t id, uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // closed earlier this wake-up
  Conn* conn = it->second.get();

  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && conn->in_flight == 0 &&
      conn->unsent() == 0) {
    CloseConn(id);
    return;
  }

  if ((events & EPOLLIN) != 0 && !conn->read_closed) {
    conn->scratch.clear();
    bool eof = false;
    const Status read = ReadAvailable(conn->fd, &conn->scratch, &eof);
    if (!conn->scratch.empty()) {
      conn->reader.Append(&conn->scratch);
      if (!ProcessFrames(id, conn)) {
        conn->closing = true;
        conn->read_closed = true;
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
    if (!read.ok()) {
      CloseConn(id);
      return;
    }
    if (eof) {
      conn->read_closed = true;
      const Status trunc = conn->reader.AtEof();
      if (!trunc.ok()) {
        // Peer vanished mid-frame: no reply can help; count and close once
        // any already-dispatched work has flushed.
        Metrics().truncated_streams->Add();
        conn->closing = true;
      }
    }
  }

  FlushConn(id);
}

void ImputationServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died first
    Conn* conn = it->second.get();
    SCIS_CHECK_GT(conn->in_flight, 0u);
    conn->in_flight--;
    Frame reply;
    if (c.result.ok()) {
      reply.type = FrameType::kImputeResponse;
      reply.payload = EncodeMatrixPayload(c.result.value());
    } else {
      reply = MakeErrorFrame(c.result.status());
    }
    StageReply(conn, c.seq, reply);
    FlushConn(c.conn_id);
  }
}

void ImputationServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  Metrics().open_connections->Set(static_cast<double>(conns_.size()));
}

bool ImputationServer::HasPendingWork() const {
  for (const auto& [id, conn] : conns_) {
    if (conn->in_flight > 0 || conn->unsent() > 0 || !conn->pending.empty()) {
      return true;
    }
  }
  return false;
}

void ImputationServer::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool draining = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      if (!draining) {
        draining = true;
        drain_deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   kDrainTimeoutMs));
        // Stop accepting, then shut down read sides: idle peers see EOF,
        // while dispatched requests still finish and flush their replies.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::shutdown(listen_fd_, SHUT_RDWR);
        for (auto& [id, conn] : conns_) {
          conn->read_closed = true;
          ::shutdown(conn->fd, SHUT_RD);
        }
      }
      if (!HasPendingWork() || Clock::now() >= drain_deadline) break;
    }

    const int timeout_ms = draining ? 20 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        if (!draining) HandleAccept();
      } else if (id == kWakeId) {
        uint64_t drainval;
        while (::read(wake_fd_, &drainval, sizeof(drainval)) > 0) {
        }
      } else {
        HandleConnEvent(id, events[i].events);
      }
    }
    // Completions can arrive with any wake-up (including timeouts); the
    // check is one uncontended mutex acquisition.
    DrainCompletions();
  }

  // Drain finished (or timed out): drop whatever is left.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
}

bool ImputationServer::WaitFor(double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_shutdown_.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms),
      [&] { return shutdown_requested_ || stopped_; });
}

void ImputationServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_shutdown_.wait(lock, [&] { return shutdown_requested_ || stopped_; });
  }
  Shutdown();
}

void ImputationServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
    cv_shutdown_.notify_all();
  }
  if (loop_thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    WakeLoop();
    loop_thread_.join();
  }
  // Queue callbacks only touch the completion queue and the eventfd, both
  // still alive here; their completions are discarded.
  for (HostedModel& model : hosted_) model.queue->Shutdown();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
  SCIS_LOG(Info) << "scis_serve: stopped (port " << port_ << ")";
}

}  // namespace scis::serve
