#include "serve/wire.h"

#include <bit>
#include <cstring>

namespace scis::serve {
namespace {

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The cells travel as little-endian f64 bit patterns, which is the host's
// own layout on a little-endian host: one memcpy each way. A big-endian host
// swaps byte by byte; the branch is chosen at compile time.
constexpr bool kHostIsWireOrder = std::endian::native == std::endian::little;

void PutF64s(const double* v, size_t n, uint8_t* out) {
  if constexpr (kHostIsWireOrder) {
    if (n > 0) std::memcpy(out, v, n * 8);
  } else {
    for (size_t k = 0; k < n; ++k) {
      const uint64_t bits = std::bit_cast<uint64_t>(v[k]);
      for (int i = 0; i < 8; ++i) {
        *out++ = static_cast<uint8_t>(bits >> (8 * i));
      }
    }
  }
}

void GetF64s(const uint8_t* p, size_t n, double* out) {
  if constexpr (kHostIsWireOrder) {
    if (n > 0) std::memcpy(out, p, n * 8);
  } else {
    for (size_t k = 0; k < n; ++k, p += 8) {
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<uint64_t>(p[i]) << (8 * i);
      }
      out[k] = std::bit_cast<double>(bits);
    }
  }
}

}  // namespace

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kImputeRequest) &&
         type <= static_cast<uint8_t>(FrameType::kShutdownAck);
}

void AppendFrame(const Frame& frame, std::vector<uint8_t>* out) {
  SCIS_CHECK_LE(frame.payload.size(), kMaxFramePayload);
  PutU32(static_cast<uint32_t>(frame.payload.size()), out);
  out->push_back(static_cast<uint8_t>(frame.type));
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
}

void FrameReader::Append(const uint8_t* data, size_t n) {
  // Compact the consumed prefix before growing, keeping the buffer bounded
  // by one frame plus one read chunk.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

void FrameReader::Append(std::vector<uint8_t>* bytes) {
  if (pos_ == buf_.size()) {
    // Nothing is held back: adopt the bytes instead of copying them, and
    // hand the old buffer (cleared, capacity kept) back for the next read.
    buf_.swap(*bytes);
    pos_ = 0;
  } else {
    Append(bytes->data(), bytes->size());
  }
  bytes->clear();
}

Result<std::optional<Frame>> FrameReader::Next() {
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return std::optional<Frame>{};
  const uint8_t* head = buf_.data() + pos_;
  const uint32_t len = GetU32(head);
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("oversized frame: declared payload of " +
                                   std::to_string(len) + " bytes");
  }
  const uint8_t type = head[4];
  if (!KnownFrameType(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(static_cast<int>(type)));
  }
  if (avail < kFrameHeaderBytes + len) return std::optional<Frame>{};
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(head + kFrameHeaderBytes,
                       head + kFrameHeaderBytes + len);
  pos_ += kFrameHeaderBytes + len;
  return std::optional<Frame>{std::move(frame)};
}

Status FrameReader::AtEof() const {
  const size_t avail = buf_.size() - pos_;
  if (avail == 0) return Status::OK();
  if (avail < kFrameHeaderBytes) {
    return Status::IoError("connection closed mid-frame: " +
                           std::to_string(avail) + " of " +
                           std::to_string(kFrameHeaderBytes) +
                           " header bytes received");
  }
  const uint32_t len = GetU32(buf_.data() + pos_);
  return Status::IoError("connection closed mid-frame: " +
                         std::to_string(avail - kFrameHeaderBytes) + " of " +
                         std::to_string(len) + " payload bytes received");
}

std::vector<uint8_t> EncodeMatrixPayload(const Matrix& m) {
  std::vector<uint8_t> out;
  out.reserve(8 + m.size() * 8);
  PutU32(static_cast<uint32_t>(m.rows()), &out);
  PutU32(static_cast<uint32_t>(m.cols()), &out);
  out.resize(8 + m.size() * 8);
  PutF64s(m.data(), m.size(), out.data() + 8);
  return out;
}

Result<Matrix> DecodeMatrixPayload(const std::vector<uint8_t>& payload) {
  if (payload.size() < 8) {
    return Status::InvalidArgument("matrix payload shorter than its header");
  }
  const uint32_t rows = GetU32(payload.data());
  const uint32_t cols = GetU32(payload.data() + 4);
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("matrix payload with zero rows or cols");
  }
  const uint64_t cells = static_cast<uint64_t>(rows) * cols;
  // Cap before the byte-size multiply: a crafted rows*cols can wrap
  // cells * 8 back into a plausible payload length.
  if (cells > kMaxFramePayload / 8) {
    return Status::InvalidArgument("matrix payload declares too many cells");
  }
  if (payload.size() != 8 + cells * 8) {
    return Status::InvalidArgument(
        "matrix payload size disagrees with its header: " +
        std::to_string(payload.size()) + " bytes for " +
        std::to_string(rows) + "x" + std::to_string(cols));
  }
  Matrix m(rows, cols);
  GetF64s(payload.data() + 8, m.size(), m.data());
  return m;
}

namespace {
// Fixed wire numbering, decoupled from the StatusCode enum order.
constexpr struct {
  StatusCode code;
  uint8_t wire;
} kStatusWireTable[] = {
    {StatusCode::kOk, 0},
    {StatusCode::kInvalidArgument, 1},
    {StatusCode::kOutOfRange, 2},
    {StatusCode::kNotFound, 3},
    {StatusCode::kAlreadyExists, 4},
    {StatusCode::kIoError, 5},
    {StatusCode::kNotImplemented, 6},
    {StatusCode::kInternal, 7},
    {StatusCode::kUnavailable, 8},
    {StatusCode::kDeadlineExceeded, 9},
};
}  // namespace

uint8_t StatusCodeToWire(StatusCode code) {
  for (const auto& e : kStatusWireTable) {
    if (e.code == code) return e.wire;
  }
  return 7;  // kInternal
}

StatusCode WireToStatusCode(uint8_t code) {
  for (const auto& e : kStatusWireTable) {
    if (e.wire == code) return e.code;
  }
  return StatusCode::kInternal;
}

Frame MakeErrorFrame(const Status& status) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.payload.push_back(StatusCodeToWire(status.code()));
  const std::string& msg = status.message();
  frame.payload.insert(frame.payload.end(), msg.begin(), msg.end());
  return frame;
}

Status DecodeErrorFrame(const Frame& frame) {
  if (frame.type != FrameType::kError || frame.payload.empty()) {
    return Status::InvalidArgument("malformed error frame");
  }
  const StatusCode code = WireToStatusCode(frame.payload[0]);
  std::string msg(frame.payload.begin() + 1, frame.payload.end());
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kIoError:
      return Status::IoError(std::move(msg));
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(msg));
}

}  // namespace scis::serve
