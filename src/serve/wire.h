// Binary wire protocol for the online imputation service.
//
// Every message is a length-prefixed frame:
//
//   [u32 payload_len, little-endian][u8 frame_type][payload_len bytes]
//
// Payloads:
//   kImputeRequest / kImputeResponse:
//     [u32 rows][u32 cols][rows*cols f64, little-endian bit patterns,
//      row-major]; missing cells are quiet NaNs (requests only — responses
//      are complete).
//   kError: [u8 status_code][utf-8 message, rest of payload]
//   kPing / kPong / kShutdown / kShutdownAck: empty.
//
// Encode/decode is pure byte-buffer work (no sockets) so the protocol is
// unit-testable; FrameReader consumes an arbitrary chunking of the stream.
// Frames larger than kMaxFramePayload are rejected at the header, before
// any payload is buffered — the server's defense against hostile lengths.
#ifndef SCIS_SERVE_WIRE_H_
#define SCIS_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace scis::serve {

// 16 MiB of payload ≈ a 2M-cell request — far above any sane micro-batch,
// far below an allocation that could hurt the server.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;
inline constexpr size_t kFrameHeaderBytes = 5;  // u32 length + u8 type

enum class FrameType : uint8_t {
  kImputeRequest = 1,
  kImputeResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kShutdown = 6,
  kShutdownAck = 7,
};

// True for the types this protocol version understands.
bool KnownFrameType(uint8_t type);

struct Frame {
  FrameType type = FrameType::kPing;
  std::vector<uint8_t> payload;
};

// Serializes `frame` onto the end of `out`.
void AppendFrame(const Frame& frame, std::vector<uint8_t>* out);

// Incremental frame decoder over an arbitrarily-chunked byte stream.
// Append() bytes as they arrive; Next() yields one complete frame, nullopt
// when more bytes are needed, or an error for a malformed stream (oversized
// declared length, unknown frame type). After an error the stream is
// unrecoverable — the connection should be closed.
class FrameReader {
 public:
  void Append(const uint8_t* data, size_t n);
  // Same, for a whole buffer: when no partial frame is held, the reader
  // takes the bytes without copying them. Leaves *bytes empty (its storage
  // may be the reader's old buffer, ready to be refilled).
  void Append(std::vector<uint8_t>* bytes);

  Result<std::optional<Frame>> Next();

  // Bytes buffered but not yet consumed (a non-zero value at EOF means the
  // peer truncated a frame mid-stream).
  size_t buffered() const { return buf_.size() - pos_; }

  // Call when the stream hits EOF. OK for a clean close on a frame
  // boundary; kIoError describing the truncation (mid-header or mid-payload,
  // with byte counts) when the peer disconnected inside a frame.
  Status AtEof() const;

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
};

// Matrix <-> payload bytes. Missing cells travel as quiet NaNs.
std::vector<uint8_t> EncodeMatrixPayload(const Matrix& m);
Result<Matrix> DecodeMatrixPayload(const std::vector<uint8_t>& payload);

// Status <-> kError payload. Codes map through a fixed wire table (see
// wire.cc) so enum reordering can never change what is transmitted.
Frame MakeErrorFrame(const Status& status);
Status DecodeErrorFrame(const Frame& frame);

uint8_t StatusCodeToWire(StatusCode code);
StatusCode WireToStatusCode(uint8_t code);

}  // namespace scis::serve

#endif  // SCIS_SERVE_WIRE_H_
