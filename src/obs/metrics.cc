#include "obs/metrics.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "obs/json_writer.h"

namespace scis::obs {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double BitsDouble(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

}  // namespace

void Gauge::Set(double v) {
  bits_.store(DoubleBits(v), std::memory_order_relaxed);
}

double Gauge::value() const {
  return BitsDouble(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  SCIS_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be ascending");
}

void Histogram::Observe(double x) {
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(old, DoubleBits(BitsDouble(old) + x),
                                          std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const {
  return BitsDouble(sum_bits_.load(std::memory_order_relaxed));
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

uint64_t MetricsSnapshot::CounterOr(const std::string& name,
                                    uint64_t fallback) const {
  auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, v] : counters) {
    w.Key(name);
    w.Uint(v);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, v] : gauges) {
    w.Key(name);
    w.Double(v);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, h] : histograms) {
    w.Key(name);
    w.BeginObject();
    w.Key("bounds");
    w.BeginArray();
    for (double b : h.bounds) w.Double(b);
    w.EndArray();
    w.Key("counts");
    w.BeginArray();
    for (uint64_t c : h.counts) w.Uint(c);
    w.EndArray();
    w.Key("count");
    w.Uint(h.count);
    w.Key("sum");
    w.Double(h.sum);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

Registry& Registry::Global() {
  static Registry* g = new Registry();  // leaked: outlive worker threads
  return *g;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  SCIS_CHECK_MSG(!gauges_.count(name) && !histograms_.count(name),
                 "metric registered with a different kind");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  SCIS_CHECK_MSG(!counters_.count(name) && !histograms_.count(name),
                 "metric registered with a different kind");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  SCIS_CHECK_MSG(!counters_.count(name) && !gauges_.count(name),
                 "metric registered with a different kind");
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData d;
    d.bounds = h->bounds();
    d.counts = h->bucket_counts();
    d.count = h->count();
    d.sum = h->sum();
    s.histograms[name] = std::move(d);
  }
  return s;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace scis::obs
