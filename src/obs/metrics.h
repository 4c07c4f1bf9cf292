// Thread-safe metrics for the hot paths: monotonic counters, last-value
// gauges, and fixed-bucket histograms.
//
// Design (after prometheus-cpp / folly counters):
//   * Registration is mutex-guarded and happens once per call site — cache
//     the returned handle in a static local. Handles are never invalidated;
//     the registry owns the metric objects for the process lifetime.
//   * The update fast path is a single relaxed atomic RMW (no locks, no
//     allocation), so instrumenting a per-solve or per-batch event costs a
//     few nanoseconds and is safe from any thread, including pool workers.
//   * Reads are snapshot-on-read: Snapshot() copies every value at a point
//     in time; nothing is aggregated on the write path.
//
// Determinism contract: counters record *work done*, which for the runtime-
// parallelized kernels is a pure function of the input (never of the thread
// count), so snapshots taken after a solve are thread-count-invariant.
// tests/sinkhorn_test.cc asserts this.
#ifndef SCIS_OBS_METRICS_H_
#define SCIS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace scis::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Last-written double value (atomic via bit pattern).
class Gauge {
 public:
  void Set(double v);
  double value() const;
  void Reset() { Set(0.0); }

 private:
  std::atomic<uint64_t> bits_{0};
};

// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
// implicit overflow bucket counts the rest. Also tracks count and sum so
// snapshots can report a mean.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double x);
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> bucket_counts() const;  // bounds().size() + 1 entries
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  void Reset();

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double accumulated via CAS
};

// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  // per bucket, overflow last
    uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  // Counter lookup with a default for absent names (tests, report
  // consumers probing optional instrumentation).
  uint64_t CounterOr(const std::string& name, uint64_t fallback = 0) const;

  // {"counters":{...},"gauges":{...},"histograms":{...}} — the object
  // embedded in run reports.
  std::string ToJson() const;
};

// Process-global metric registry.
class Registry {
 public:
  static Registry& Global();

  // Get-or-create by name. The returned pointer is stable for the process
  // lifetime; cache it in a static local at the call site. Registering the
  // same name as two different kinds aborts (programming error). For
  // histograms, `bounds` applies on first registration only.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric (bench/test epoch boundary). Handles
  // stay valid.
  void Reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;  // guards the maps, not the metric values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace scis::obs

#endif  // SCIS_OBS_METRICS_H_
