// Structured run reports: every bench binary writes one machine-readable
// JSON file per run (--report-out) so the perf trajectory can be tracked
// without scraping table output.
//
// Schema (version 1):
//   {
//     "tool": "<binary name>",
//     "schema_version": 1,
//     "config": { "<flag>": <value>, ... },
//     "phases": [ {"name": "...", "seconds": <double>}, ... ],
//     "sections": { "<name>": { "<key>": <value>, ... }, ... },
//     "metrics": <obs::MetricsSnapshot::ToJson()>
//   }
// All doubles are emitted with max_digits10 and round-trip bit-exactly.
#ifndef SCIS_OBS_RUN_REPORT_H_
#define SCIS_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace scis::obs {

class RunReport {
 public:
  explicit RunReport(std::string tool) : tool_(std::move(tool)) {}

  // Flag/config values, reported in insertion order.
  void AddConfig(const std::string& key, const std::string& value);
  void AddConfig(const std::string& key, const char* value);
  void AddConfig(const std::string& key, double value);
  void AddConfig(const std::string& key, int64_t value);
  void AddConfig(const std::string& key, bool value);

  // Named wall-clock phases (seconds), in insertion order.
  void AddPhase(const std::string& name, double seconds);

  // Free-form key/value sections ("runtime" carries runtime::Stats()).
  void AddSectionValue(const std::string& section, const std::string& key,
                       const std::string& value);
  void AddSectionValue(const std::string& section, const std::string& key,
                       double value);
  void AddSectionValue(const std::string& section, const std::string& key,
                       uint64_t value);

  // Renders the report with `metrics` embedded.
  std::string ToJson(const MetricsSnapshot& metrics) const;

  // Snapshots the global registry and publishes the report to `path`
  // atomically (PublishFile): on failure any previous file is intact.
  Status Write(const std::string& path) const;

 private:
  // Values are stored pre-rendered as JSON tokens (quoted/escaped strings,
  // max_digits10 numbers) so insertion order survives without a variant.
  using Kv = std::pair<std::string, std::string>;

  void AddSectionToken(const std::string& section, const std::string& key,
                       std::string token);

  std::string tool_;
  std::vector<Kv> config_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, std::vector<Kv>>> sections_;
};

}  // namespace scis::obs

#endif  // SCIS_OBS_RUN_REPORT_H_
