#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace scis {
namespace {

using obs::Registry;

TEST(ObsJsonTest, EscapesAndNumbers) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::JsonNumber(1.0), "1");
  // Non-finite doubles have no JSON representation.
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::JsonNumber(std::nan("")), "null");
  // max_digits10 round trip.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(obs::JsonNumber(v)), v);
}

TEST(ObsMetricsTest, CounterBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetricsTest, GaugeStoresDoubles) {
  obs::Gauge g;
  g.Set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
  const double v = 0.1 + 0.2;  // not representable at 6 digits
  g.Set(v);
  EXPECT_EQ(g.value(), v);  // bit-exact
}

TEST(ObsMetricsTest, HistogramBuckets) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (<= bound)
  h.Observe(5.0);    // bucket 1
  h.Observe(1000.0);  // overflow
  std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 1000.0);
}

TEST(ObsMetricsTest, RegistryGetOrCreate) {
  obs::Counter* a = Registry::Global().GetCounter("test.registry.counter");
  obs::Counter* b = Registry::Global().GetCounter("test.registry.counter");
  EXPECT_EQ(a, b);  // same handle for the same name
  a->Add(3);
  obs::MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.CounterOr("test.registry.counter"), 3u);
  EXPECT_EQ(snap.CounterOr("test.registry.absent", 7u), 7u);
  a->Reset();
}

TEST(ObsMetricsTest, ConcurrentCountersExact) {
  obs::Counter* c = Registry::Global().GetCounter("test.concurrent.counter");
  obs::Histogram* h = Registry::Global().GetHistogram(
      "test.concurrent.hist", {0.5});
  c->Reset();
  h->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
        h->Observe(1.0);
      }
    });
  }
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(c->value(), uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), uint64_t(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h->sum(), double(kThreads) * kPerThread);
  c->Reset();
  h->Reset();
}

TEST(ObsMetricsTest, SnapshotJsonShape) {
  Registry::Global().GetCounter("test.json.counter")->Add(5);
  Registry::Global().GetGauge("test.json.gauge")->Set(1.5);
  std::string json = Registry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":1.5"), std::string::npos);
  Registry::Global().GetCounter("test.json.counter")->Reset();
  Registry::Global().GetGauge("test.json.gauge")->Reset();
}

TEST(ObsTraceTest, DisabledSpansAreNoops) {
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  { SCIS_TRACE_SPAN("test.disabled"); }
  EXPECT_EQ(obs::TraceSpanCount(), 0u);
}

TEST(ObsTraceTest, WriteChromeTraceJson) {
  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  obs::SetCurrentThreadName("obs-test-main");
  { SCIS_TRACE_SPAN("test.span.a"); }
  std::thread([] {
    obs::SetCurrentThreadName("obs-test-worker");
    SCIS_TRACE_SPAN("test.span.b");
  }).join();
  obs::SetTraceEnabled(false);
  EXPECT_EQ(obs::TraceSpanCount(), 2u);
  const std::string path = "/tmp/scis_obs_trace_test.json";
  ASSERT_TRUE(obs::WriteTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.span.a\""), std::string::npos);
  EXPECT_NE(json.find("\"test.span.b\""), std::string::npos);
  EXPECT_NE(json.find("\"obs-test-worker\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  obs::ClearTrace();
  std::remove(path.c_str());
}

TEST(ObsReportTest, WriteAndShape) {
  obs::RunReport report("obs_test");
  report.AddConfig("scale", 0.25);
  report.AddConfig("epochs", static_cast<int64_t>(20));
  report.AddConfig("dataset", "Trial");
  report.AddConfig("verbose", true);
  report.AddPhase("total", 1.5);
  report.AddSectionValue("runtime", "worker_chunks", uint64_t{12});
  const std::string path = "/tmp/scis_obs_report_test.json";
  ASSERT_TRUE(report.Write(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"tool\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"scale\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"epochs\":20"), std::string::npos);
  EXPECT_NE(json.find("\"dataset\":\"Trial\""), std::string::npos);
  EXPECT_NE(json.find("\"verbose\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"total\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_chunks\":12"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsReportTest, WriteToBadPathErrors) {
  obs::RunReport report("obs_test");
  EXPECT_FALSE(report.Write("/nonexistent/dir/report.json").ok());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

size_t TempSiblings(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp.") != std::string::npos) ++n;
  }
  return n;
}

// Reports and traces are published atomically: a write that fails
// mid-file (here: the file size limit) or at the rename (the target is a
// directory) leaves no temp file behind and does not replace the file
// already there.
TEST(ObsReportTest, FailedWriteKeepsExistingFileAndLeavesNoTemp) {
  const std::string dir = ::testing::TempDir() + "scis_obs_publish";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/dir.json");
  const std::string report_path = dir + "/report.json";
  const std::string trace_path = dir + "/trace.json";
  obs::ClearTrace();
  ASSERT_TRUE(obs::RunReport("obs_test").Write(report_path).ok());
  ASSERT_TRUE(obs::WriteTrace(trace_path).ok());
  const std::string report_before = ReadFileBytes(report_path);
  const std::string trace_before = ReadFileBytes(trace_path);

  // Both far larger than the 4 KiB cap below.
  obs::RunReport big("obs_test");
  for (int i = 0; i < 1000; ++i) {
    big.AddConfig("key_" + std::to_string(i), std::string(16, 'x'));
  }
  obs::SetTraceEnabled(true);
  for (int i = 0; i < 1000; ++i) {
    SCIS_TRACE_SPAN("test.publish");
  }
  obs::SetTraceEnabled(false);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = 4096;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Status report_too_big = big.Write(report_path);
  const Status trace_too_big = obs::WriteTrace(trace_path);
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_EQ(report_too_big.code(), StatusCode::kIoError)
      << report_too_big.ToString();
  EXPECT_EQ(trace_too_big.code(), StatusCode::kIoError)
      << trace_too_big.ToString();
  EXPECT_EQ(ReadFileBytes(report_path), report_before);
  EXPECT_EQ(ReadFileBytes(trace_path), trace_before);

  EXPECT_EQ(big.Write(dir + "/dir.json").code(), StatusCode::kIoError);
  EXPECT_EQ(obs::WriteTrace(dir + "/dir.json").code(), StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/dir.json"));
  EXPECT_EQ(TempSiblings(dir), 0u);
  obs::ClearTrace();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace scis
