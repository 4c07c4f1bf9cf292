// Serving subsystem tests: wire protocol, engine-vs-offline bit-identity,
// BatchQueue semantics (flush triggers, backpressure, timeouts, drain), and
// a TCP loopback exercising the full server/client path.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "data/normalizer.h"
#include "models/gain_imputer.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"
#include "serve/batch_queue.h"
#include "serve/checkpoint_loader.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "testkit/golden.h"
#include "testkit/gtest_glue.h"

namespace scis::serve {
namespace {

using testkit::PropertyOptions;
using testkit::PropertyStatus;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Cell-level bit equality (doubles compared as bit patterns, so NaNs and
// signed zeros count as equal only when identical).
bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a.data()[i]) !=
        std::bit_cast<uint64_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

// A valid random GAIN-shaped in-memory checkpoint: 2d -> d -> d, sigmoid
// output.
Checkpoint MakeCheckpoint(size_t d, uint64_t seed) {
  Rng rng(seed);
  Checkpoint ckpt;
  ckpt.version = 2;
  ckpt.meta.model = "GAIN";
  for (size_t j = 0; j < d; ++j) {
    ckpt.meta.columns.push_back({"c" + std::to_string(j), 0, 0});
    ckpt.meta.norm_lo.push_back(-2.0 - static_cast<double>(j));
    ckpt.meta.norm_hi.push_back(3.0 + static_cast<double>(j));
  }
  ckpt.params.push_back({"g.l0.W", rng.NormalMatrix(2 * d, d, 0.0, 0.5)});
  ckpt.params.push_back({"g.l0.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  ckpt.params.push_back({"g.l1.W", rng.NormalMatrix(d, d, 0.0, 0.5)});
  ckpt.params.push_back({"g.l1.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  return ckpt;
}

std::shared_ptr<const ImputationEngine> MakeEngine(size_t d, uint64_t seed) {
  Result<std::shared_ptr<const ImputationEngine>> engine =
      ImputationEngine::FromCheckpoint(MakeCheckpoint(d, seed));
  SCIS_CHECK(engine.ok());
  return *engine;
}

// Raw-unit rows inside the checkpoint's [lo, hi] ranges, with NaN holes.
Matrix RandomRows(Rng& rng, size_t n, size_t d, double missing_rate) {
  Matrix rows(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      rows(i, j) = rng.Bernoulli(missing_rate)
                       ? kNaN
                       : rng.Uniform(-2.0 - static_cast<double>(j),
                                     3.0 + static_cast<double>(j));
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(ServeWireTest, FrameRoundTripSurvivesAnyChunking) {
  CHECK_PROPERTY("serve.wire.frame_chunking", [](uint64_t seed) {
    Rng rng(seed);
    // A few frames of every type, with random payloads where allowed.
    std::vector<Frame> sent;
    const FrameType types[] = {FrameType::kImputeRequest,
                               FrameType::kImputeResponse, FrameType::kError,
                               FrameType::kPing,          FrameType::kPong,
                               FrameType::kShutdown, FrameType::kShutdownAck};
    const size_t num_frames = 1 + rng.UniformIndex(6);
    std::vector<uint8_t> stream;
    for (size_t k = 0; k < num_frames; ++k) {
      Frame f;
      f.type = types[rng.UniformIndex(7)];
      const size_t len = rng.UniformIndex(200);
      for (size_t b = 0; b < len; ++b) {
        f.payload.push_back(static_cast<uint8_t>(rng.UniformIndex(256)));
      }
      AppendFrame(f, &stream);
      sent.push_back(std::move(f));
    }
    // Feed the byte stream in random-size chunks (including size 1).
    FrameReader reader;
    std::vector<Frame> got;
    size_t at = 0;
    while (at < stream.size()) {
      const size_t chunk =
          std::min(stream.size() - at, 1 + rng.UniformIndex(17));
      reader.Append(stream.data() + at, chunk);
      at += chunk;
      for (;;) {
        Result<std::optional<Frame>> next = reader.Next();
        if (!next.ok()) return PropertyStatus::Fail(next.status().ToString());
        if (!next.value().has_value()) break;
        got.push_back(std::move(*next.value()));
      }
    }
    if (reader.buffered() != 0) {
      return PropertyStatus::Fail("bytes left over after full stream");
    }
    if (got.size() != sent.size()) {
      return PropertyStatus::Fail("frame count mismatch");
    }
    for (size_t k = 0; k < sent.size(); ++k) {
      if (got[k].type != sent[k].type || got[k].payload != sent[k].payload) {
        return PropertyStatus::Fail("frame " + std::to_string(k) +
                                    " corrupted");
      }
    }
    return PropertyStatus::Pass();
  });
}

TEST(ServeWireTest, TruncatedFrameStaysPendingAndReportsBuffered) {
  Frame f{FrameType::kImputeRequest, {1, 2, 3, 4, 5, 6, 7, 8}};
  std::vector<uint8_t> bytes;
  AppendFrame(f, &bytes);
  // Every strict prefix must yield "need more bytes", never a frame.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameReader reader;
    reader.Append(bytes.data(), cut);
    Result<std::optional<Frame>> next = reader.Next();
    ASSERT_TRUE(next.ok()) << "prefix " << cut;
    EXPECT_FALSE(next.value().has_value()) << "prefix " << cut;
    EXPECT_EQ(reader.buffered(), cut);  // truncation is visible at EOF
  }
}

TEST(ServeWireTest, OversizedFrameRejectedAtHeader) {
  // Header declares kMaxFramePayload + 1 bytes; only the header arrives.
  const uint32_t len = kMaxFramePayload + 1;
  std::vector<uint8_t> bytes = {
      static_cast<uint8_t>(len & 0xff), static_cast<uint8_t>((len >> 8) & 0xff),
      static_cast<uint8_t>((len >> 16) & 0xff),
      static_cast<uint8_t>((len >> 24) & 0xff),
      static_cast<uint8_t>(FrameType::kImputeRequest)};
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Result<std::optional<Frame>> next = reader.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeWireTest, UnknownFrameTypeRejected) {
  std::vector<uint8_t> bytes = {0, 0, 0, 0, 99};  // empty payload, type 99
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  EXPECT_FALSE(reader.Next().ok());
  EXPECT_FALSE(KnownFrameType(99));
  EXPECT_TRUE(KnownFrameType(static_cast<uint8_t>(FrameType::kPing)));
}

// Regression: the cap is inclusive — a payload of exactly kMaxFramePayload
// is legal; only strictly larger declarations are rejected.
TEST(ServeWireTest, ExactlyMaxPayloadAccepted) {
  Frame f;
  f.type = FrameType::kImputeRequest;
  f.payload.assign(kMaxFramePayload, 0xab);
  std::vector<uint8_t> bytes;
  AppendFrame(f, &bytes);
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Result<std::optional<Frame>> next = reader.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next.value().has_value());
  EXPECT_EQ(next.value()->payload.size(), kMaxFramePayload);
  EXPECT_TRUE(reader.AtEof().ok());  // fully consumed: a clean close
}

// Regression: a peer that disconnects mid-frame must surface a clean
// truncation error (not loop, not look like a graceful close).
TEST(ServeWireTest, AtEofDistinguishesCleanCloseFromTruncation) {
  FrameReader reader;
  EXPECT_TRUE(reader.AtEof().ok());  // nothing buffered: clean close

  Frame f{FrameType::kImputeRequest, {1, 2, 3, 4, 5, 6, 7, 8}};
  std::vector<uint8_t> bytes;
  AppendFrame(f, &bytes);

  // EOF inside the 5-byte header.
  reader.Append(bytes.data(), 3);
  EXPECT_EQ(reader.AtEof().code(), StatusCode::kIoError);

  // EOF inside the payload (header complete).
  FrameReader mid;
  mid.Append(bytes.data(), kFrameHeaderBytes + 4);
  ASSERT_TRUE(mid.Next().ok());  // needs more bytes, no error yet
  const Status trunc = mid.AtEof();
  EXPECT_EQ(trunc.code(), StatusCode::kIoError);
  EXPECT_NE(trunc.message().find("mid-frame"), std::string::npos);

  // A whole frame followed by EOF is clean again.
  FrameReader whole;
  whole.Append(bytes.data(), bytes.size());
  ASSERT_TRUE(whole.Next().value().has_value());
  EXPECT_TRUE(whole.AtEof().ok());
}

TEST(ServeWireTest, MatrixPayloadRoundTripsBitExact) {
  CHECK_PROPERTY("serve.wire.matrix_roundtrip", [](uint64_t seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.UniformIndex(20);
    const size_t d = 1 + rng.UniformIndex(12);
    Matrix m = RandomRows(rng, n, d, 0.3);
    Result<Matrix> back = DecodeMatrixPayload(EncodeMatrixPayload(m));
    if (!back.ok()) return PropertyStatus::Fail(back.status().ToString());
    if (!BitIdentical(m, back.value())) {
      return PropertyStatus::Fail("decoded matrix differs");
    }
    return PropertyStatus::Pass();
  });
}

// Pins the matrix payload's bytes, so a codec rewrite cannot change the
// wire format unnoticed: u32 rows, u32 cols, then each cell's f64 bit
// pattern, little-endian, row-major.
TEST(ServeWireTest, MatrixPayloadMatchesGoldenBytes) {
  Matrix m(2, 3);
  m(0, 0) = -0.0;
  m(0, 1) = std::numeric_limits<double>::infinity();
  m(0, 2) = -std::numeric_limits<double>::infinity();
  m(1, 0) = std::numeric_limits<double>::denorm_min();
  m(1, 1) = std::bit_cast<double>(uint64_t{0x7FF800000000BEEF});  // NaN
  m(1, 2) = 1.5;
  const std::vector<uint8_t> golden = {
      0x02, 0x00, 0x00, 0x00,                          // rows
      0x03, 0x00, 0x00, 0x00,                          // cols
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x7F,  // +inf
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0xFF,  // -inf
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // smallest subnormal
      0xEF, 0xBE, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x7F,  // NaN, payload 0xBEEF
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // 1.5
  };
  EXPECT_EQ(EncodeMatrixPayload(m), golden);
  Result<Matrix> back = DecodeMatrixPayload(golden);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(BitIdentical(m, back.value()));
}

// A reader holding no partial frame adopts a staged buffer whole; one that
// holds a partial frame appends to it. Both yield the same frames.
TEST(ServeWireTest, FrameReaderAdoptsOrAppendsStagedBytes) {
  std::vector<uint8_t> stream;
  AppendFrame(Frame{FrameType::kPing, {}}, &stream);
  AppendFrame(Frame{FrameType::kImputeRequest, {1, 2, 3}}, &stream);
  FrameReader reader;
  std::vector<uint8_t> staged(stream.begin(), stream.begin() + 7);
  reader.Append(&staged);  // nothing held: adopted
  EXPECT_TRUE(staged.empty());
  Result<std::optional<Frame>> ping = reader.Next();
  ASSERT_TRUE(ping.ok() && ping.value().has_value());
  EXPECT_EQ(ping.value()->type, FrameType::kPing);
  Result<std::optional<Frame>> none = reader.Next();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());  // 2 of 8 request bytes held
  staged.assign(stream.begin() + 7, stream.end());
  reader.Append(&staged);  // partial frame held: appended
  EXPECT_TRUE(staged.empty());
  Result<std::optional<Frame>> req = reader.Next();
  ASSERT_TRUE(req.ok() && req.value().has_value());
  EXPECT_EQ(req.value()->type, FrameType::kImputeRequest);
  EXPECT_EQ(req.value()->payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_TRUE(reader.AtEof().ok());
}

TEST(ServeWireTest, MatrixPayloadRejectsMalformed) {
  EXPECT_FALSE(DecodeMatrixPayload({1, 2, 3}).ok());  // shorter than header
  // Zero rows / cols.
  std::vector<uint8_t> zero(8, 0);
  EXPECT_FALSE(DecodeMatrixPayload(zero).ok());
  // Cell count whose byte size overflows u64 back into a small number.
  std::vector<uint8_t> overflow = {0, 0, 0, 0x80, 0, 0, 0, 0x40};
  EXPECT_FALSE(DecodeMatrixPayload(overflow).ok());
  // Declared 2x2 but only one double of payload.
  Matrix one(1, 1);
  one(0, 0) = 1.5;
  std::vector<uint8_t> short_payload = EncodeMatrixPayload(one);
  short_payload[0] = 2;
  short_payload[4] = 2;
  EXPECT_FALSE(DecodeMatrixPayload(short_payload).ok());
}

TEST(ServeWireTest, ErrorFrameRoundTripsEveryStatusCode) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kIoError,
      StatusCode::kNotImplemented, StatusCode::kInternal,
      StatusCode::kUnavailable,  StatusCode::kDeadlineExceeded};
  for (StatusCode code : codes) {
    EXPECT_EQ(WireToStatusCode(StatusCodeToWire(code)), code);
  }
  const Status st = Status::Unavailable("queue full");
  const Status back = DecodeErrorFrame(MakeErrorFrame(st));
  EXPECT_EQ(back.code(), StatusCode::kUnavailable);
  EXPECT_EQ(back.message(), "queue full");
}

// ---------------------------------------------------------------------------
// ImputationEngine
// ---------------------------------------------------------------------------

TEST(ServeEngineTest, RejectsNonServableCheckpoints) {
  Checkpoint v1 = MakeCheckpoint(3, 1);
  v1.version = 1;
  EXPECT_EQ(ImputationEngine::FromCheckpoint(v1).status().code(),
            StatusCode::kInvalidArgument);

  Checkpoint ginn = MakeCheckpoint(3, 1);
  ginn.meta.model = "GINN";
  EXPECT_EQ(ImputationEngine::FromCheckpoint(ginn).status().code(),
            StatusCode::kNotImplemented);

  Checkpoint bad_stats = MakeCheckpoint(3, 1);
  bad_stats.meta.norm_hi[1] = bad_stats.meta.norm_lo[1];  // hi == lo
  EXPECT_FALSE(ImputationEngine::FromCheckpoint(bad_stats).ok());

  Checkpoint bad_chain = MakeCheckpoint(3, 1);
  bad_chain.params[2].value = Matrix::Zeros(5, 3);  // breaks d -> d link
  EXPECT_FALSE(ImputationEngine::FromCheckpoint(bad_chain).ok());

  Checkpoint bad_out = MakeCheckpoint(3, 1);
  bad_out.params.pop_back();  // odd parameter count
  EXPECT_FALSE(ImputationEngine::FromCheckpoint(bad_out).ok());
}

TEST(ServeEngineTest, ValidatesRequests) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 2);
  EXPECT_FALSE(engine->ImputeBatch(Matrix::Zeros(0, 3)).ok());
  EXPECT_FALSE(engine->ImputeBatch(Matrix::Zeros(2, 4)).ok());
  Matrix inf(1, 3);
  inf(0, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(engine->ImputeBatch(inf).ok());
}

TEST(ServeEngineTest, ObservedCellsPassThroughBitExact) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(4, 3);
  Rng rng(11);
  Matrix rows = RandomRows(rng, 8, 4, 0.4);
  Result<Matrix> out = engine->ImputeBatch(rows);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < rows.rows(); ++i) {
    for (size_t j = 0; j < rows.cols(); ++j) {
      if (std::isnan(rows(i, j))) {
        EXPECT_FALSE(std::isnan(out.value()(i, j)));  // filled
      } else {
        EXPECT_EQ(std::bit_cast<uint64_t>(rows(i, j)),
                  std::bit_cast<uint64_t>(out.value()(i, j)));
      }
    }
  }
}

// The tentpole contract: a checkpoint written after offline training serves
// the exact bits the offline Imputer produced for the same rows.
TEST(ServeEngineTest, MatchesOfflineImputerBitExact) {
  const size_t n = 80, d = 4;
  Rng rng(7);
  Matrix values = rng.UniformMatrix(n, d, -3.0, 9.0);
  Matrix mask = rng.BernoulliMatrix(n, d, 0.75);
  MulInPlace(values, mask);
  Dataset raw("serve_vs_offline", values, mask, NumericColumns(d));

  // Offline pipeline, exactly as scis_impute runs it.
  MinMaxNormalizer norm;
  Dataset train = norm.FitTransform(raw);
  GainImputerOptions o;
  o.deep.epochs = 3;
  GainImputer gain(o);
  ASSERT_TRUE(gain.Fit(train).ok());
  Matrix offline = norm.InverseTransform(gain.Impute(train));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (raw.IsObserved(i, j)) offline(i, j) = raw.values()(i, j);
    }
  }

  // Checkpoint through disk, then serve the raw rows.
  CheckpointMeta meta;
  meta.model = "GAIN";
  for (const ColumnMeta& c : raw.columns()) {
    meta.columns.push_back({c.name, static_cast<int>(c.kind),
                            c.num_categories});
  }
  meta.norm_lo = norm.lo();
  meta.norm_hi = norm.hi();
  const std::string path = "/tmp/scis_serve_engine_ckpt.bin";
  ASSERT_TRUE(SaveCheckpoint(gain.generator_params(), meta, path).ok());
  Result<std::shared_ptr<const ImputationEngine>> engine =
      ImputationEngine::Load(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::remove(path.c_str());

  Matrix request(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      request(i, j) = raw.IsObserved(i, j) ? raw.values()(i, j) : kNaN;
    }
  }
  Result<Matrix> served = (*engine)->ImputeBatch(request);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(BitIdentical(offline, served.value()));
}

// A checkpoint served zero-copy out of the mmap produces the same bits as
// the same weights held in an owning in-memory checkpoint.
TEST(ServeEngineTest, MappedV3CheckpointServesBitIdentical) {
  const Checkpoint ckpt = MakeCheckpoint(4, 91);
  ParamStore store;
  for (const NamedParam& p : ckpt.params) store.Add(p.name, p.value);
  const std::string path = "/tmp/scis_serve_v3_engine.bin";
  ASSERT_TRUE(SaveCheckpoint(store, ckpt.meta, path).ok());

  Result<std::shared_ptr<const ImputationEngine>> mapped =
      ImputationEngine::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::shared_ptr<const ImputationEngine> owned =
      *ImputationEngine::FromCheckpoint(ckpt);

  Rng rng(15);
  for (int it = 0; it < 8; ++it) {
    Matrix rows = RandomRows(rng, 1 + rng.UniformIndex(6), 4, 0.4);
    Result<Matrix> a = (*mapped)->ImputeBatch(rows);
    Result<Matrix> b = owned->ImputeBatch(rows);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(BitIdentical(a.value(), b.value()));
  }
  std::remove(path.c_str());
}

// The retrieval load path maps the checkpoint too; it must serve the same
// bits as the owning in-memory engine with the same index, at any thread
// count.
TEST(ServeEngineTest, MappedRetrievalLoadMatchesInMemory) {
  const size_t d = 4;
  const Checkpoint ckpt = MakeCheckpoint(d, 95);
  ParamStore store;
  for (const NamedParam& p : ckpt.params) store.Add(p.name, p.value);
  const std::string path = "/tmp/scis_serve_retrieval_engine.bin";
  const std::string index_path = "/tmp/scis_serve_retrieval_engine.annidx";
  ASSERT_TRUE(SaveCheckpoint(store, ckpt.meta, path).ok());
  Rng rng(17);
  Matrix train_mask = rng.BernoulliMatrix(300, d, 0.8);
  Matrix train_values = rng.UniformMatrix(300, d, 0.0, 1.0);
  MulInPlace(train_values, train_mask);
  ASSERT_TRUE(
      index::AnnIndex::Build(train_values, train_mask).Save(index_path).ok());

  const RetrievalOptions retrieval{5, 4, 0.5};
  Result<std::shared_ptr<const ImputationEngine>> mapped =
      ImputationEngine::Load(path, index_path, retrieval);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE((*mapped)->has_index());
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  Result<index::AnnIndex> index = index::AnnIndex::Load(index_path);
  ASSERT_TRUE(loaded.ok() && index.ok());
  Result<std::shared_ptr<const ImputationEngine>> owned =
      ImputationEngine::FromCheckpoint(*loaded, std::move(*index), retrieval);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  std::remove(path.c_str());
  std::remove(index_path.c_str());

  const Matrix rows = RandomRows(rng, 40, d, 0.4);
  for (int threads : {1, 2, 4}) {
    runtime::SetNumThreads(threads);
    Result<Matrix> a = (*mapped)->ImputeBatch(rows);
    Result<Matrix> b = (*owned)->ImputeBatch(rows);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(BitIdentical(a.value(), b.value())) << threads << " threads";
  }
  runtime::SetNumThreads(0);  // restore the env/hardware default
}

// Retrieval records one index.search span per batch, not one per query row:
// per-row spans filled the serving thread's trace buffer (its per-thread cap)
// in long traced runs, and the trace then dropped spans.
TEST(ServeEngineTest, TracedRetrievalRecordsOneSearchSpanPerBatch) {
  const size_t d = 4;
  Rng rng(19);
  Matrix train_mask = rng.BernoulliMatrix(300, d, 0.8);
  Matrix train_values = rng.UniformMatrix(300, d, 0.0, 1.0);
  MulInPlace(train_values, train_mask);
  Result<std::shared_ptr<const ImputationEngine>> engine =
      ImputationEngine::FromCheckpoint(
          MakeCheckpoint(d, 99), index::AnnIndex::Build(train_values, train_mask),
          RetrievalOptions{5, 4, 0.5});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Matrix rows = RandomRows(rng, 64, d, 0.4);

  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  const Result<Matrix> out = (*engine)->ImputeBatch(rows);
  obs::SetTraceEnabled(false);
  ASSERT_TRUE(out.ok());
  const std::string path = "/tmp/scis_serve_search_span_trace.json";
  ASSERT_TRUE(obs::WriteTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::remove(path.c_str());
  const std::string needle = "\"name\":\"index.search\"";
  size_t spans = 0;
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size())) {
    ++spans;
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_EQ(obs::TraceDroppedCount(), 0u);
  obs::ClearTrace();
}

// The hot-swap loader, given an index, attaches it exactly as
// ImputationEngine::Load does: a reload of a retrieval-serving model keeps
// retrieval on and serves the same bits.
TEST(ServeEngineTest, CheckpointLoaderAttachesIndex) {
  const size_t d = 4;
  const Checkpoint ckpt = MakeCheckpoint(d, 97);
  ParamStore store;
  for (const NamedParam& p : ckpt.params) store.Add(p.name, p.value);
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "scis_loader_index_engine.bin";
  const std::string index_path = dir + "scis_loader_index_engine.annidx";
  ASSERT_TRUE(SaveCheckpoint(store, ckpt.meta, path).ok());
  Rng rng(19);
  Matrix train_mask = rng.BernoulliMatrix(300, d, 0.8);
  Matrix train_values = rng.UniformMatrix(300, d, 0.0, 1.0);
  MulInPlace(train_values, train_mask);
  ASSERT_TRUE(
      index::AnnIndex::Build(train_values, train_mask).Save(index_path).ok());

  const RetrievalOptions retrieval{5, 4, 0.5};
  Result<std::shared_ptr<const ImputationEngine>> loaded =
      LoadAndValidateCheckpoint(path, d, index_path, retrieval);
  Result<std::shared_ptr<const ImputationEngine>> direct =
      ImputationEngine::Load(path, index_path, retrieval);
  std::remove(path.c_str());
  std::remove(index_path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE((*loaded)->has_index());

  const Matrix rows = RandomRows(rng, 40, d, 0.4);
  Result<Matrix> a = (*loaded)->ImputeBatch(rows);
  Result<Matrix> b = (*direct)->ImputeBatch(rows);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(BitIdentical(a.value(), b.value()));
}

// A saved index file, as lines of whitespace-separated tokens.
using IndexFileLines = std::vector<std::vector<std::string>>;

IndexFileLines ReadIndexLines(const std::string& path) {
  IndexFileLines lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    std::istringstream tokens(line);
    lines.emplace_back();
    for (std::string t; tokens >> t;) lines.back().push_back(t);
  }
  return lines;
}

void WriteIndexLines(const std::string& path, const IndexFileLines& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::vector<std::string>& line : lines) {
    for (size_t i = 0; i < line.size(); ++i) out << (i ? " " : "") << line[i];
    out << "\n";
  }
}

// Index of the line following the keyword line starting with `keyword`.
size_t LineAfter(const IndexFileLines& lines, const std::string& keyword) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i][0] == keyword) return i + 1;
  }
  ADD_FAILURE() << "no '" << keyword << "' line";
  return 0;
}

// Row ids that are not a permutation of the stored rows (out of range,
// repeated, in both lists) or nodes out of pre-order would make the packed
// scans and the engine's neighbour reads index past the stored rows: the
// index load, and the engine load that attaches it, reject each file.
TEST(ServeEngineTest, LoadRejectsCorruptIndexFiles) {
  const size_t d = 4, n = 200;
  const Checkpoint ckpt = MakeCheckpoint(d, 97);
  ParamStore store;
  for (const NamedParam& p : ckpt.params) store.Add(p.name, p.value);
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "scis_corrupt_index_engine.bin";
  const std::string good = dir + "scis_corrupt_index_good.annidx";
  const std::string bad = dir + "scis_corrupt_index_bad.annidx";
  ASSERT_TRUE(SaveCheckpoint(store, ckpt.meta, path).ok());
  Rng rng(19);
  Matrix train_mask(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      // Every fourth row observes one coordinate: a side row.
      train_mask(i, j) = i % 4 == 0 ? (j == 0 ? 1.0 : 0.0)
                                    : (rng.Bernoulli(0.9) ? 1.0 : 0.0);
    }
  }
  Matrix train_values = rng.UniformMatrix(n, d, 0.0, 1.0);
  MulInPlace(train_values, train_mask);
  index::IndexOptions iopts;
  iopts.max_leaf_rows = 16;
  ASSERT_TRUE(index::AnnIndex::Build(train_values, train_mask, iopts)
                  .Save(good)
                  .ok());
  const IndexFileLines lines = ReadIndexLines(good);
  const size_t rowids = LineAfter(lines, "rowids");
  const size_t siderows = LineAfter(lines, "siderows");
  const size_t nodes = LineAfter(lines, "nodes");
  ASSERT_GE(lines[rowids].size(), 2u);
  ASSERT_GE(lines[siderows].size(), 1u);
  ASSERT_GT(lines[nodes].size(), 4u);  // the root has two or more children
  // A diamond: an internal child of the root also claims a later child of
  // the root, so that node gets two parents (pre-order alone allows it).
  size_t inner = 0, later = 0;
  for (size_t c = 3; c < lines[nodes].size() && later == 0; ++c) {
    const size_t id = std::stoul(lines[nodes][c]);
    if (inner == 0 && lines[nodes + id][2] != "0") {
      inner = id;
    } else if (inner != 0) {
      later = id;
    }
  }
  ASSERT_NE(later, 0u) << "no internal root child with a later sibling";

  struct Corruption {
    const char* what;
    std::function<void(IndexFileLines*)> apply;
  };
  const std::vector<Corruption> corruptions = {
      {"tree row id == n",
       [&](IndexFileLines* f) { (*f)[rowids][0] = std::to_string(n); }},
      {"side row id == n",
       [&](IndexFileLines* f) { (*f)[siderows][0] = std::to_string(n); }},
      {"repeated tree row id",
       [&](IndexFileLines* f) { (*f)[rowids][1] = (*f)[rowids][0]; }},
      {"row id in both lists",
       [&](IndexFileLines* f) { (*f)[siderows][0] = (*f)[rowids][0]; }},
      {"root lists itself as a child",
       [&](IndexFileLines* f) { (*f)[nodes][3] = "0"; }},
      {"root lists a child twice",
       [&](IndexFileLines* f) { (*f)[nodes][4] = (*f)[nodes][3]; }},
      {"node with two parents",
       [&](IndexFileLines* f) {
         (*f)[nodes + inner][3] = std::to_string(later);
       }},
  };
  const RetrievalOptions retrieval{5, 4, 0.5};
  for (const Corruption& c : corruptions) {
    IndexFileLines edited = lines;
    c.apply(&edited);
    WriteIndexLines(bad, edited);
    Result<index::AnnIndex> index = index::AnnIndex::Load(bad);
    ASSERT_FALSE(index.ok()) << c.what;
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_FALSE(ImputationEngine::Load(path, bad, retrieval).ok()) << c.what;
  }
  EXPECT_TRUE(ImputationEngine::Load(path, good, retrieval).ok());
  std::remove(path.c_str());
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// Served retrieval bytes are pinned by a golden digest: a Search-shaped
// pool (d = 64, 81% missing, 1,000 indexed rows, default RetrievalOptions)
// whose sparse queries take the full scan, plus a mixed-density pool whose
// dense rows go through the tree's budgeted leaf scans and the side list.
TEST(ServeEngineTest, RetrievalServingMatchesGolden) {
  const size_t d = 64, index_rows = 1000, query_rows = 256;
  const std::shared_ptr<const ImputationEngine> plain = MakeEngine(d, 131);
  std::ostringstream out;
  out << "retrieval serving golden: d=" << d << " index_rows=" << index_rows
      << " query_rows=" << query_rows << "\n";
  struct Pool {
    const char* name;
    std::vector<double> missing_rates;  // cycled per row
  };
  for (const Pool& pool : {Pool{"search", {0.81}},
                           Pool{"mixed", {0.1, 0.3, 0.81, 0.95}}}) {
    Rng rng(137);
    Matrix train_values = rng.UniformMatrix(index_rows, d, 0.0, 1.0);
    Matrix train_mask(index_rows, d);
    for (size_t i = 0; i < index_rows; ++i) {
      const double rate = pool.missing_rates[i % pool.missing_rates.size()];
      for (size_t j = 0; j < d; ++j) {
        train_mask(i, j) = rng.Bernoulli(rate) ? 0.0 : 1.0;
      }
    }
    MulInPlace(train_values, train_mask);
    index::AnnIndex index = index::AnnIndex::Build(train_values, train_mask);
    out << pool.name << ": side_rows=" << index.num_side_rows()
        << " leaves=" << index.num_leaves() << "\n";
    Result<std::shared_ptr<const ImputationEngine>> engine =
        ImputationEngine::FromCheckpoint(MakeCheckpoint(d, 131),
                                         std::move(index), RetrievalOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    Matrix rows(query_rows, d);
    for (size_t i = 0; i < query_rows; ++i) {
      const double rate = pool.missing_rates[i % pool.missing_rates.size()];
      const Matrix one = RandomRows(rng, 1, d, rate);
      std::copy(one.data(), one.data() + d, rows.row_data(i));
    }
    Result<Matrix> served = (*engine)->ImputeBatch(rows);
    Result<Matrix> generator_only = plain->ImputeBatch(rows);
    ASSERT_TRUE(served.ok() && generator_only.ok());
    size_t blended = 0;
    for (size_t k = 0; k < rows.size(); ++k) {
      blended += std::bit_cast<uint64_t>(served->data()[k]) !=
                         std::bit_cast<uint64_t>(generator_only->data()[k])
                     ? 1
                     : 0;
    }
    out << pool.name << ": blended_cells=" << blended << " output_fnv1a="
        << std::hex << testkit::MatrixDigest(*served) << std::dec
        << "\n";
    out.precision(std::numeric_limits<double>::max_digits10);
    for (size_t i = 0; i < 2; ++i) {
      out << pool.name << ": row" << i << ":";
      for (size_t j = 0; j < d; ++j) {
        if (std::isnan(rows(i, j))) out << " " << j << "=" << (*served)(i, j);
      }
      out << "\n";
    }
  }
  EXPECT_MATCHES_GOLDEN("serve_retrieval.txt", out.str());
}

// ---------------------------------------------------------------------------
// BatchQueue
// ---------------------------------------------------------------------------

// Batched execution returns the same bits as serving each request alone,
// under any arrival interleaving and any worker-thread count.
TEST(BatchQueueTest, BatchedMatchesUnbatchedAnyInterleaving) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(5, 17);
  for (int threads : {1, 2, 4}) {
    runtime::SetNumThreads(threads);
    PropertyOptions popts;
    popts.iterations = 6;
    CHECK_PROPERTY(
        "serve.queue.bit_identity.t" + std::to_string(threads),
        [&](uint64_t seed) {
          Rng rng(seed);
          const size_t num_requests = 3 + rng.UniformIndex(10);
          std::vector<Matrix> inputs, expected;
          for (size_t k = 0; k < num_requests; ++k) {
            inputs.push_back(
                RandomRows(rng, 1 + rng.UniformIndex(7), 5, 0.35));
            Result<Matrix> solo = engine->ImputeBatch(inputs.back());
            if (!solo.ok()) {
              return PropertyStatus::Fail(solo.status().ToString());
            }
            expected.push_back(std::move(solo).value());
          }
          BatchQueueOptions qopts;
          qopts.max_batch_rows = 1 + rng.UniformIndex(16);
          qopts.max_wait_ms = 0.2;
          BatchQueue queue(engine, qopts);
          std::vector<Result<Matrix>> got(num_requests, Status::OK());
          std::vector<std::thread> clients;
          for (size_t k = 0; k < num_requests; ++k) {
            clients.emplace_back(
                [&, k] { got[k] = queue.Impute(inputs[k]); });
          }
          for (std::thread& t : clients) t.join();
          for (size_t k = 0; k < num_requests; ++k) {
            if (!got[k].ok()) {
              return PropertyStatus::Fail(got[k].status().ToString());
            }
            if (!BitIdentical(expected[k], got[k].value())) {
              return PropertyStatus::Fail(
                  "request " + std::to_string(k) +
                  " differs from unbatched execution");
            }
          }
          return PropertyStatus::Pass();
        },
        popts);
  }
  runtime::SetNumThreads(0);  // restore the env/hardware default
}

// max_wait is a minute, so only the row-count trigger can flush; the test
// completing at all proves flush-on-max-batch-size.
TEST(BatchQueueTest, FlushesWhenBatchSizeReached) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 23);
  BatchQueueOptions opts;
  opts.max_batch_rows = 4;
  opts.max_wait_ms = 60000;
  BatchQueue queue(engine, opts);
  Rng rng(5);
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int k = 0; k < 4; ++k) {
    Matrix row = RandomRows(rng, 1, 3, 0.5);
    clients.emplace_back([&, row] {
      if (queue.Impute(row).ok()) ok_count.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 4);
}

// A lone request never reaches max_batch_rows; the wait deadline flushes it.
TEST(BatchQueueTest, FlushesOnWaitDeadline) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 29);
  BatchQueueOptions opts;
  opts.max_batch_rows = 1024;
  opts.max_wait_ms = 5;
  BatchQueue queue(engine, opts);
  Rng rng(6);
  Result<Matrix> out = queue.Impute(RandomRows(rng, 2, 3, 0.5));
  EXPECT_TRUE(out.ok()) << out.status().ToString();
}

TEST(BatchQueueTest, FullQueueRejectsWithUnavailable) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 31);
  BatchQueueOptions opts;
  opts.max_batch_rows = 1024;  // nothing flushes on size
  opts.max_queue_rows = 4;
  opts.max_wait_ms = 60000;    // nothing flushes on time
  BatchQueue queue(engine, opts);
  Rng rng(8);
  Matrix three = RandomRows(rng, 3, 3, 0.5);
  std::thread background([&] { (void)queue.Impute(three); });
  while (queue.queued_rows() < 3) std::this_thread::yield();
  // 3 + 2 > 4: admission must reject synchronously.
  Result<Matrix> rejected = queue.Impute(RandomRows(rng, 2, 3, 0.5));
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  queue.Shutdown();  // drains the queued request
  background.join();
}

TEST(BatchQueueTest, QueuedRequestTimesOutWithDeadlineExceeded) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 37);
  BatchQueueOptions opts;
  opts.max_batch_rows = 1024;
  opts.max_wait_ms = 60000;
  opts.request_timeout_ms = 10;
  BatchQueue queue(engine, opts);
  Rng rng(9);
  Result<Matrix> out = queue.Impute(RandomRows(rng, 1, 3, 0.5));
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(BatchQueueTest, ShutdownDrainsQueuedWorkThenRejectsNew) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 41);
  BatchQueueOptions opts;
  opts.max_batch_rows = 1024;
  opts.max_wait_ms = 60000;  // queued work can only leave via the drain
  BatchQueue queue(engine, opts);
  Rng rng(10);
  std::vector<std::thread> clients;
  std::vector<Result<Matrix>> got(3, Status::OK());
  for (int k = 0; k < 3; ++k) {
    Matrix rows = RandomRows(rng, 2, 3, 0.5);
    clients.emplace_back([&, k, rows] { got[k] = queue.Impute(rows); });
  }
  while (queue.queued_rows() < 6) std::this_thread::yield();
  queue.Shutdown();
  for (std::thread& t : clients) t.join();
  for (const Result<Matrix>& r : got) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();  // drained, not dropped
  }
  Result<Matrix> late = queue.Impute(RandomRows(rng, 1, 3, 0.5));
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(BatchQueueTest, RejectsWrongWidthRequests) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 43);
  BatchQueue queue(engine, {});
  EXPECT_EQ(queue.Impute(Matrix::Zeros(1, 7)).status().code(),
            StatusCode::kInvalidArgument);
}

// Regression: deadlines are re-checked when the batch actually starts
// executing. A batch dispatched in time can still sit in the pool queue
// behind earlier work; its requests must fail with kDeadlineExceeded
// instead of executing late.
TEST(BatchQueueTest, DeadlineRecheckedWhenBatchExecutes) {
  runtime::SetNumThreads(2);
  runtime::ThreadPool* pool = runtime::GetPool();
  ASSERT_NE(pool, nullptr);

  // Occupy every pool worker so the dispatched batch queues behind them.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> blocked{0};
  for (int w = 0; w < pool->num_threads(); ++w) {
    pool->Submit([&] {
      blocked.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  while (blocked.load() < pool->num_threads()) std::this_thread::yield();

  std::shared_ptr<const ImputationEngine> engine = MakeEngine(3, 53);
  BatchQueueOptions opts;
  opts.max_batch_rows = 1;  // flush (dispatch) immediately
  opts.request_timeout_ms = 50;
  BatchQueue queue(engine, opts);
  Rng rng(11);
  Result<Matrix> out = Status::OK();
  std::thread client([&] { out = queue.Impute(RandomRows(rng, 1, 3, 0.5)); });
  // Wait for dispatch (the queue empties when the batch is collected), let
  // the deadline lapse while the batch waits behind the blockers, then
  // release the workers.
  while (queue.queued_rows() > 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  client.join();
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  queue.Shutdown();
  runtime::SetNumThreads(0);  // restore the env/hardware default
}

// The async path serves the same bits as the engine alone and reports
// admission failures synchronously through the callback.
TEST(BatchQueueTest, ImputeAsyncDeliversSameBitsAndErrors) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(4, 59);
  BatchQueueOptions opts;
  opts.max_wait_ms = 0.2;
  BatchQueue queue(engine, opts);

  Rng rng(13);
  constexpr size_t kRequests = 8;
  std::vector<Matrix> inputs;
  for (size_t k = 0; k < kRequests; ++k) {
    inputs.push_back(RandomRows(rng, 1 + rng.UniformIndex(5), 4, 0.4));
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  std::vector<Result<Matrix>> got(kRequests, Status::OK());
  for (size_t k = 0; k < kRequests; ++k) {
    queue.ImputeAsync(inputs[k], [&, k](Result<Matrix> r) {
      std::lock_guard<std::mutex> lock(mu);
      got[k] = std::move(r);
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kRequests; });
  }
  for (size_t k = 0; k < kRequests; ++k) {
    ASSERT_TRUE(got[k].ok()) << got[k].status().ToString();
    EXPECT_TRUE(
        BitIdentical(engine->ImputeBatch(inputs[k]).value(), got[k].value()));
  }

  // Admission failure: the callback fires before ImputeAsync returns.
  bool rejected = false;
  queue.ImputeAsync(Matrix::Zeros(1, 9), [&](Result<Matrix> r) {
    rejected = r.status().code() == StatusCode::kInvalidArgument;
  });
  EXPECT_TRUE(rejected);
}

// ---------------------------------------------------------------------------
// EngineSlot (hot-swap)
// ---------------------------------------------------------------------------

TEST(EngineSlotTest, SwapValidatesSchemaAndRetargetsNewBatches) {
  std::shared_ptr<const ImputationEngine> a = MakeEngine(3, 61);
  std::shared_ptr<const ImputationEngine> b = MakeEngine(3, 67);  // same d
  auto slot = std::make_shared<EngineSlot>(a);
  BatchQueueOptions opts;
  opts.max_wait_ms = 0.2;
  BatchQueue queue(slot, opts);

  Rng rng(14);
  Matrix rows = RandomRows(rng, 4, 3, 0.5);
  Result<Matrix> before = queue.Impute(rows);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(BitIdentical(a->ImputeBatch(rows).value(), before.value()));

  // Swap under a live queue: later batches run wholly on the new version.
  ASSERT_TRUE(slot->Swap(b).ok());
  Result<Matrix> after = queue.Impute(rows);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(BitIdentical(b->ImputeBatch(rows).value(), after.value()));
  EXPECT_FALSE(BitIdentical(before.value(), after.value()));

  // Schema-width mismatches and null engines leave the slot untouched.
  EXPECT_EQ(slot->Swap(MakeEngine(5, 71)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(slot->Swap(nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(slot->Get()->num_cols(), 3u);
}

// ---------------------------------------------------------------------------
// TCP loopback
// ---------------------------------------------------------------------------

TEST(ServeServerTest, LoopbackImputePingErrorsAndRemoteShutdown) {
  std::shared_ptr<const ImputationEngine> engine = MakeEngine(4, 47);
  ServerOptions opts;
  opts.queue.max_wait_ms = 0.5;
  ImputationServer server(engine, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Result<std::unique_ptr<ImputationClient>> connected =
      ImputationClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ImputationClient& client = **connected;
  EXPECT_TRUE(client.Ping().ok());

  // Concurrent clients: responses must match the engine run alone.
  Rng rng(12);
  Matrix a = RandomRows(rng, 5, 4, 0.4);
  Matrix b = RandomRows(rng, 3, 4, 0.4);
  Result<std::unique_ptr<ImputationClient>> connected2 =
      ImputationClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected2.ok());
  Result<Matrix> reply_b = Status::OK();
  std::thread second(
      [&] { reply_b = (*connected2)->Impute(b); });
  Result<Matrix> reply_a = client.Impute(a);
  second.join();
  ASSERT_TRUE(reply_a.ok()) << reply_a.status().ToString();
  ASSERT_TRUE(reply_b.ok()) << reply_b.status().ToString();
  EXPECT_TRUE(BitIdentical(engine->ImputeBatch(a).value(), reply_a.value()));
  EXPECT_TRUE(BitIdentical(engine->ImputeBatch(b).value(), reply_b.value()));

  // Server-side rejection travels back as its original status code.
  Result<Matrix> wrong = client.Impute(Matrix::Zeros(1, 9));
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(client.RequestShutdown().ok());
  server.Wait();  // returns only once the drain completed

  EXPECT_FALSE(
      ImputationClient::Connect("127.0.0.1", server.port()).ok());
}

}  // namespace
}  // namespace scis::serve
