#ifndef CACKLE_COMMON_OBSERVABILITY_H_
#define CACKLE_COMMON_OBSERVABILITY_H_

#include <ostream>
#include <string>
#include <string_view>

#include "common/cost_ledger.h"
#include "common/metrics.h"
#include "common/tracer.h"

namespace cackle {

/// \brief The observability sink: metrics + per-query trace + cost ledger.
///
/// Callers (tests, bench binaries) construct one and hand it to the engine
/// via EngineOptions::observability. The engine treats a null pointer as
/// "recording disabled" — the zero-cost guard mirroring the fault
/// injector's contract: a run without a sink is bit-identical to a run
/// that never had the instrumentation, and a run *with* a sink is also
/// bit-identical, because every sink is pure bookkeeping (no randomness,
/// no scheduled events).
struct Observability {
  Observability() : tracer(/*enabled=*/true) {}

  MetricsRegistry metrics;
  Tracer tracer;
  CostLedger ledger;
};

/// \brief Serializes a full observability snapshot as one JSON document:
///
///   {"name": ..., "schema_version": 2,
///    "metrics": {...}, "cost_attribution": {...},
///    "num_spans": N, "spans_truncated": bool,
///    "span_aggregates": [...], "spans": [...]}
///
/// `max_spans` caps the exported raw span array (0 = all); the true raw
/// count is always reported so truncation is visible. Folded spans appear
/// only in `span_aggregates`, which is never truncated. Output is
/// byte-deterministic for identical recorded state (EXPERIMENTS.md
/// documents the schema).
void WriteSnapshotJson(const Observability& obs, std::string_view name,
                       std::ostream& os, size_t max_spans = 0);

/// Convenience: snapshot to a string (the determinism tests compare these).
std::string SnapshotJson(const Observability& obs, std::string_view name,
                         size_t max_spans = 0);

}  // namespace cackle

#endif  // CACKLE_COMMON_OBSERVABILITY_H_
