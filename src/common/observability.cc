#include "common/observability.h"

#include <sstream>

#include "common/json_writer.h"

namespace cackle {

void WriteSnapshotJson(const Observability& obs, std::string_view name,
                       std::ostream& os, size_t max_spans) {
  JsonWriter json(os);
  json.BeginObject();
  json.Field("name", name);
  json.Field("schema_version", static_cast<int64_t>(2));
  json.Key("metrics");
  obs.metrics.WriteJson(json);
  json.Key("cost_attribution");
  obs.ledger.WriteJson(json);
  json.Field("num_spans", static_cast<int64_t>(obs.tracer.size()));
  json.Field("spans_truncated",
             max_spans != 0 && obs.tracer.size() > max_spans);
  json.Key("span_aggregates");
  obs.tracer.WriteAggregatesJson(json);
  json.Key("spans");
  obs.tracer.WriteJson(json, max_spans);
  json.EndObject();
}

std::string SnapshotJson(const Observability& obs, std::string_view name,
                         size_t max_spans) {
  std::ostringstream os;
  WriteSnapshotJson(obs, name, os, max_spans);
  return os.str();
}

}  // namespace cackle
