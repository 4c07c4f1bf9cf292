#include "obs/run_report.h"

#include "common/file_publish.h"
#include "obs/json_writer.h"

namespace scis::obs {

namespace {

std::string QuotedToken(std::string_view s) {
  return "\"" + JsonEscape(s) + "\"";
}

}  // namespace

void RunReport::AddConfig(const std::string& key, const std::string& value) {
  config_.emplace_back(key, QuotedToken(value));
}

void RunReport::AddConfig(const std::string& key, const char* value) {
  config_.emplace_back(key, QuotedToken(value));
}

void RunReport::AddConfig(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

void RunReport::AddConfig(const std::string& key, int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunReport::AddConfig(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

void RunReport::AddPhase(const std::string& name, double seconds) {
  phases_.emplace_back(name, seconds);
}

void RunReport::AddSectionToken(const std::string& section,
                                const std::string& key, std::string token) {
  for (auto& [name, kvs] : sections_) {
    if (name == section) {
      kvs.emplace_back(key, std::move(token));
      return;
    }
  }
  sections_.push_back({section, {{key, std::move(token)}}});
}

void RunReport::AddSectionValue(const std::string& section,
                                const std::string& key,
                                const std::string& value) {
  AddSectionToken(section, key, QuotedToken(value));
}

void RunReport::AddSectionValue(const std::string& section,
                                const std::string& key, double value) {
  AddSectionToken(section, key, JsonNumber(value));
}

void RunReport::AddSectionValue(const std::string& section,
                                const std::string& key, uint64_t value) {
  AddSectionToken(section, key, std::to_string(value));
}

std::string RunReport::ToJson(const MetricsSnapshot& metrics) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("tool");
  w.String(tool_);
  w.Key("schema_version");
  w.Int(1);
  w.Key("config");
  w.BeginObject();
  for (const auto& [key, token] : config_) {
    w.Key(key);
    w.Raw(token);
  }
  w.EndObject();
  w.Key("phases");
  w.BeginArray();
  for (const auto& [name, seconds] : phases_) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("seconds");
    w.Double(seconds);
    w.EndObject();
  }
  w.EndArray();
  w.Key("sections");
  w.BeginObject();
  for (const auto& [name, kvs] : sections_) {
    w.Key(name);
    w.BeginObject();
    for (const auto& [key, token] : kvs) {
      w.Key(key);
      w.Raw(token);
    }
    w.EndObject();
  }
  w.EndObject();
  w.Key("metrics");
  w.Raw(metrics.ToJson());
  w.EndObject();
  return w.TakeString();
}

Status RunReport::Write(const std::string& path) const {
  const std::string json = ToJson(Registry::Global().Snapshot());
  return PublishFile(path, {json, "\n"});
}

}  // namespace scis::obs
