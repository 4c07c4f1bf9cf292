#include "testkit/golden.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

namespace scis::testkit {

#ifndef SCIS_DEFAULT_GOLDEN_DIR
#define SCIS_DEFAULT_GOLDEN_DIR "tests/golden"
#endif

std::string GoldenDir() {
  const char* env = std::getenv("SCIS_GOLDEN_DIR");
  if (env != nullptr && *env != '\0') return env;
  return SCIS_DEFAULT_GOLDEN_DIR;
}

bool UpdateGoldensRequested() {
  const char* env = std::getenv("SCIS_UPDATE_GOLDENS");
  return env != nullptr && std::string(env) == "1";
}

namespace {

// Pinpoints the first differing line for the failure message.
std::string FirstDiff(const std::string& expected, const std::string& actual) {
  std::istringstream es(expected), as(actual);
  std::string el, al;
  int line = 0;
  while (true) {
    ++line;
    const bool more_e = static_cast<bool>(std::getline(es, el));
    const bool more_a = static_cast<bool>(std::getline(as, al));
    if (!more_e && !more_a) return "contents identical";
    if (el != al || more_e != more_a) {
      std::ostringstream oss;
      oss << "first difference at line " << line << ":\n  golden: "
          << (more_e ? el : "<eof>") << "\n  actual: "
          << (more_a ? al : "<eof>");
      return oss.str();
    }
  }
}

}  // namespace

GoldenMatch MatchGolden(const std::string& name, const std::string& content) {
  const std::string path = GoldenDir() + "/" + name;
  GoldenMatch match;
  if (UpdateGoldensRequested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    out.flush();
    if (!out) {
      match.message = "failed to write golden " + path;
      return match;
    }
    match.ok = true;
    match.updated = true;
    match.message = "updated " + path;
    return match;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    match.message = "missing golden " + path +
                    " — generate it with SCIS_UPDATE_GOLDENS=1";
    return match;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == content) {
    match.ok = true;
    return match;
  }
  match.message = "golden mismatch for " + path + "\n" +
                  FirstDiff(expected, content) +
                  "\nregenerate with SCIS_UPDATE_GOLDENS=1 if intended";
  return match;
}

namespace {

// Minimal recursive-descent walk collecting "path:type" pairs.
struct ShapeParser {
  const std::string& s;
  size_t pos = 0;
  std::set<std::string> paths = {};
  bool failed = false;

  void SkipWs() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                              s[pos] == '\t' || s[pos] == '\r')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::string ParseString() {
    // pos is one past the opening quote on entry.
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\' && pos + 1 < s.size()) {
        out += s[pos + 1];
        pos += 2;
      } else {
        out += s[pos++];
      }
    }
    ++pos;  // closing quote
    return out;
  }

  void Value(const std::string& path) {
    SkipWs();
    if (pos >= s.size()) {
      failed = true;
      return;
    }
    const char c = s[pos];
    if (c == '{') {
      ++pos;
      paths.insert(path + ":object");
      SkipWs();
      if (Consume('}')) return;
      while (!failed) {
        SkipWs();
        if (pos >= s.size() || s[pos] != '"') {
          failed = true;
          return;
        }
        ++pos;
        const std::string key = ParseString();
        if (!Consume(':')) {
          failed = true;
          return;
        }
        Value(path.empty() ? key : path + "." + key);
        if (Consume(',')) continue;
        if (Consume('}')) return;
        failed = true;
        return;
      }
    } else if (c == '[') {
      ++pos;
      paths.insert(path + ":array");
      SkipWs();
      if (Consume(']')) return;
      while (!failed) {
        Value(path + "[]");
        if (Consume(',')) continue;
        if (Consume(']')) return;
        failed = true;
        return;
      }
    } else if (c == '"') {
      ++pos;
      ParseString();
      paths.insert(path + ":string");
    } else if (s.compare(pos, 4, "true") == 0 ||
               s.compare(pos, 5, "false") == 0) {
      pos += (c == 't') ? 4 : 5;
      paths.insert(path + ":bool");
    } else if (s.compare(pos, 4, "null") == 0) {
      pos += 4;
      paths.insert(path + ":null");
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      while (pos < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[pos])) ||
              s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
              s[pos] == 'e' || s[pos] == 'E' || s[pos] == 'i' ||
              s[pos] == 'n' || s[pos] == 'f' || s[pos] == 'a')) {
        ++pos;  // accepts numbers plus inf/nan tokens some writers emit
      }
      paths.insert(path + ":number");
    } else {
      failed = true;
    }
  }
};

}  // namespace

std::string JsonShape(const std::string& json) {
  ShapeParser parser{json};
  parser.Value("");
  parser.SkipWs();
  if (parser.failed || parser.pos != json.size()) {
    return "<invalid json at byte " + std::to_string(parser.pos) + ">\n";
  }
  std::ostringstream oss;
  for (const std::string& p : parser.paths) oss << p << "\n";
  return oss.str();
}

uint64_t MatrixDigest(const Matrix& m, uint64_t h) {
  for (size_t i = 0; i < m.size(); ++i) {
    const uint64_t bits = std::bit_cast<uint64_t>(m.data()[i]);
    for (int b = 0; b < 64; b += 8) {
      h = (h ^ ((bits >> b) & 0xFF)) * 1099511628211ull;
    }
  }
  return h;
}

}  // namespace scis::testkit
