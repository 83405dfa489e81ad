// Reads spans back out of TraceCollector::write_chrome_json, for tests that
// assert on what a run traced. The parser leans on the exporter's stable
// key order ("name" first, then tid/ts/dur/args) for extraction only;
// obs_test checks the export's well-formedness separately.
#pragma once

#include <string>
#include <vector>

#include "obs/config.h"

namespace orco::testutil {

/// The fields of one exported span.
struct SpanRec {
  std::string name;
  long long tid = 0;
  long long ts = 0;
  long long dur = 0;
  unsigned long long id = 0;
  unsigned long long tenant = 0;
  unsigned long long n = 0;
};

inline long long field_ll(const std::string& obj, const std::string& key) {
  const auto at = obj.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0;
  return std::stoll(obj.substr(at + key.size() + 4));
}

inline std::string field_str(const std::string& obj, const std::string& key) {
  const auto at = obj.find("\"" + key + "\": \"");
  if (at == std::string::npos) return {};
  const auto start = at + key.size() + 5;
  return obj.substr(start, obj.find('"', start) - start);
}

/// Every span in a Chrome trace-event JSON dump, in dump order.
inline std::vector<SpanRec> parse_spans(const std::string& trace_json) {
  std::vector<SpanRec> out;
  std::size_t at = trace_json.find("{\"name\": ");
  while (at != std::string::npos) {
    const std::size_t close = trace_json.find("}}", at);
    const std::string obj = trace_json.substr(at, close - at + 2);
    SpanRec rec;
    rec.name = field_str(obj, "name");
    rec.tid = field_ll(obj, "tid");
    rec.ts = field_ll(obj, "ts");
    rec.dur = field_ll(obj, "dur");
    rec.id = static_cast<unsigned long long>(field_ll(obj, "id"));
    rec.tenant = static_cast<unsigned long long>(field_ll(obj, "tenant"));
    rec.n = static_cast<unsigned long long>(field_ll(obj, "n"));
    out.push_back(rec);
    at = trace_json.find("{\"name\": ", close);
  }
  return out;
}

/// Installs an ObsConfig for the test body and restores defaults after.
class ScopedObsConfig {
 public:
  explicit ScopedObsConfig(const obs::ObsConfig& cfg) { obs::configure(cfg); }
  ~ScopedObsConfig() { obs::configure(obs::ObsConfig{}); }
  ScopedObsConfig(const ScopedObsConfig&) = delete;
  ScopedObsConfig& operator=(const ScopedObsConfig&) = delete;
};

}  // namespace orco::testutil
