#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cost_ledger.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/observability.h"
#include "common/tracer.h"
#include "engine/engine.h"
#include "engine/scenario.h"

namespace cackle {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, WritesEscapedDeterministicDocument) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Field("s", std::string_view("a\"b\\c\n"));
  json.Field("i", int64_t{-3});
  json.Field("d", 0.1);
  json.Field("b", true);
  json.Key("none").Null();
  json.Key("arr").BeginArray();
  json.Int(1);
  json.Int(2);
  json.EndArray();
  json.EndObject();
  EXPECT_TRUE(json.Done());
  EXPECT_EQ(os.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":-3,\"d\":0.1,\"b\":true,"
            "\"none\":null,\"arr\":[1,2]}");
}

TEST(JsonWriterTest, CharLiteralFieldIsAStringNotABool) {
  // Without a const char* overload, a string literal converts to bool and
  // silently emits `true` — caught once in a real bench artifact.
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Field("k", "v");
  json.EndObject();
  EXPECT_EQ(os.str(), "{\"k\":\"v\"}");
}

TEST(JsonWriterTest, DoublesUseShortestRoundTrip) {
  EXPECT_EQ(JsonDoubleToString(0.1), "0.1");
  EXPECT_EQ(JsonDoubleToString(-2.5), "-2.5");
  EXPECT_EQ(JsonDoubleToString(0.0), "0");
  // Non-finite values must still yield valid JSON.
  EXPECT_EQ(JsonDoubleToString(std::nan("")), "null");
  const double parsed = std::stod(JsonDoubleToString(0.30000000000000004));
  EXPECT_EQ(parsed, 0.30000000000000004);  // round-trips exactly
}

TEST(JsonWriterTest, StreamHoldsDocumentOnceTopLevelCloses) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Field("k", int64_t{1});
  json.EndObject();
  // The writer is still alive: the top-level close flushed the buffer.
  EXPECT_EQ(os.str(), "{\"k\":1}");

  std::ostringstream array_os;
  JsonWriter array_json(array_os);
  array_json.BeginArray();
  array_json.Bool(false);
  array_json.EndArray();
  array_os << "\n";  // what callers append after the document
  EXPECT_EQ(array_os.str(), "[false]\n");
}

TEST(JsonWriterTest, LargeDocumentCrossesFlushBoundaryIntact) {
  std::ostringstream os;
  std::string expected = "[";
  {
    JsonWriter json(os);
    json.BeginArray();
    for (int i = 0; i < 20000; ++i) {
      const std::string item = "item\t" + std::to_string(i);
      json.BeginObject();
      json.Field("s", item);
      json.Field("i", int64_t{i} * -7);
      json.EndObject();
      if (i > 0) expected += ',';
      expected += "{\"s\":\"item\\t" + std::to_string(i) +
                  "\",\"i\":" + std::to_string(int64_t{i} * -7) + "}";
    }
    json.EndArray();
  }
  expected += ']';
  ASSERT_GT(expected.size(), 4u * 64 * 1024);
  EXPECT_EQ(os.str(), expected);
}

TEST(JsonWriterTest, IntegerExtremesAndEscapesAreExact) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginArray();
  json.Int(std::numeric_limits<int64_t>::min());
  json.Int(0);
  json.Uint(std::numeric_limits<uint64_t>::max());
  json.String(std::string_view("\x00\x01\x1f\x7f", 4));
  json.String("plain \"q\" back\\slash\r\nend\x1b[0m\t");
  json.String("");
  json.String("\xc3\xa9t\xc3\xa9");  // UTF-8 bytes pass through unchanged
  json.EndArray();
  EXPECT_EQ(os.str(),
            "[-9223372036854775808,0,18446744073709551615,"
            "\"\\u0000\\u0001\\u001f\x7f\","
            "\"plain \\\"q\\\" back\\\\slash\\r\\nend\\u001b[0m\\t\","
            "\"\",\"\xc3\xa9t\xc3\xa9\"]");
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.count");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5);
  EXPECT_EQ(registry.GetCounter("a.count"), c);  // stable handle
  EXPECT_EQ(registry.CounterValue("a.count"), 5);
  EXPECT_EQ(registry.CounterValue("missing", -7), -7);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);

  registry.SetGauge("a.gauge", 2.0);
  registry.GetGauge("a.gauge")->Max(1.0);  // lower: no change
  EXPECT_DOUBLE_EQ(registry.FindGauge("a.gauge")->value(), 2.0);

  for (int i = 1; i <= 100; ++i) registry.Observe("a.hist", i);
  const SampleSet& samples = registry.FindHistogram("a.hist")->samples();
  EXPECT_EQ(samples.size(), 100u);
  EXPECT_DOUBLE_EQ(samples.Percentile(50), 50.5);
}

TEST(MetricsTest, JsonIsSortedByName) {
  MetricsRegistry registry;
  registry.SetCounter("z.last", 1);
  registry.SetCounter("a.first", 2);
  std::ostringstream os;
  JsonWriter json(os);
  registry.WriteJson(json);
  const std::string out = os.str();
  EXPECT_LT(out.find("a.first"), out.find("z.last"));
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledTracerIsInert) {
  Tracer tracer;  // disabled by default
  const SpanId id = tracer.Begin("query", 10);
  EXPECT_EQ(id, kInvalidSpan);
  tracer.Tag(id, "k", "v");
  tracer.End(id, 20);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, RecordsNestedSpansAndTags) {
  Tracer tracer(/*enabled=*/true);
  const SpanId query = tracer.Begin("query", 0, kInvalidSpan, 7);
  const SpanId stage = tracer.Begin("stage", 5, query, 7);
  tracer.Tag(stage, "stage", "0");
  const SpanId ev = tracer.Instant("shuffle.read", 6, stage, 7);
  tracer.End(stage, 30);
  tracer.End(query, 40);

  ASSERT_EQ(tracer.size(), 3u);
  const Span& q = tracer.spans()[0];
  const Span& s = tracer.spans()[1];
  const Span& e = tracer.spans()[2];
  EXPECT_EQ(q.parent, kInvalidSpan);
  EXPECT_EQ(s.parent, q.id);
  EXPECT_EQ(e.parent, s.id);
  EXPECT_EQ(e.start_ms, e.end_ms);  // instant
  EXPECT_TRUE(q.closed() && s.closed() && e.closed());
  EXPECT_EQ(s.tags.size(), 1u);
  EXPECT_EQ(ev, e.id);
  EXPECT_EQ(q.query_id, 7);
}

TEST(TracerTest, JsonTruncationReportsTrueCount) {
  Observability obs;
  for (int i = 0; i < 5; ++i) {
    obs.tracer.End(obs.tracer.Begin("s", i), i + 1);
  }
  const std::string full = SnapshotJson(obs, "t");
  const std::string capped = SnapshotJson(obs, "t", 2);
  EXPECT_NE(full.find("\"spans_truncated\":false"), std::string::npos);
  EXPECT_NE(capped.find("\"spans_truncated\":true"), std::string::npos);
  EXPECT_NE(capped.find("\"num_spans\":5"), std::string::npos);
  EXPECT_LT(capped.size(), full.size());
}

TEST(TracerTest, DisabledBeginFoldedIsInert) {
  Tracer tracer;
  const SpanId id = tracer.BeginFolded("task", 10, kInvalidSpan, 3);
  EXPECT_EQ(id, kInvalidSpan);
  tracer.Tag(id, "placement", "vm");
  tracer.End(id, 20);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.FindAggregate("task"), nullptr);
  EXPECT_EQ(tracer.folded_slots(), 0u);
}

TEST(TracerTest, SampledQueriesStayRaw) {
  Tracer tracer(/*enabled=*/true);
  const SpanId stage = tracer.Begin("stage", 0, kInvalidSpan, 64);
  for (const int64_t q : {int64_t{0}, Tracer::kRawSampleStride,
                          5 * Tracer::kRawSampleStride}) {
    const SpanId raw = tracer.BeginFolded("task", 1, stage, q);
    EXPECT_GT(raw, kInvalidSpan) << q;
    tracer.Tag(raw, "placement", "vm");
    tracer.End(raw, 2);
  }
  ASSERT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.spans()[2].parent, stage);
  EXPECT_EQ(tracer.spans()[2].query_id, Tracer::kRawSampleStride);
  EXPECT_EQ(tracer.spans()[3].tags.size(), 1u);
  EXPECT_EQ(tracer.FindAggregate("task"), nullptr);

  for (const int64_t q : {int64_t{-1}, int64_t{1}, int64_t{63}, int64_t{65}}) {
    const SpanId folded = tracer.BeginFolded("task", 1, stage, q);
    EXPECT_LT(folded, kInvalidSpan) << q;
    tracer.End(folded, 2);
  }
  EXPECT_EQ(tracer.size(), 4u);
  ASSERT_NE(tracer.FindAggregate("task"), nullptr);
  EXPECT_EQ(tracer.FindAggregate("task")->count, 4);
}

TEST(TracerTest, FoldedDurationsAreExact) {
  Tracer tracer(/*enabled=*/true);
  // Durations 0, 1, 2, 3, 1000, 1024: bit widths 0, 1, 2, 2, 10, 11.
  const int64_t durations[] = {0, 1, 2, 3, 1000, 1024};
  std::vector<SpanId> ids;
  for (const int64_t d : durations) {
    ids.push_back(tracer.BeginFolded("task", 100 + d, kInvalidSpan, 1));
  }
  const SpanAggregate* agg = tracer.FindAggregate("task");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->open, 6);
  EXPECT_EQ(agg->count, 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    tracer.End(ids[i], 100 + 2 * durations[i]);
  }
  EXPECT_EQ(agg->open, 0);
  EXPECT_EQ(agg->count, 6);
  EXPECT_EQ(agg->total_ms, 2030);
  EXPECT_EQ(agg->max_ms, 1024);
  std::array<int64_t, 64> buckets{};
  buckets[0] = 1;
  buckets[1] = 1;
  buckets[2] = 2;
  buckets[10] = 1;
  buckets[11] = 1;
  EXPECT_EQ(agg->buckets, buckets);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.folded_slots(), 6u);
}

TEST(TracerTest, FoldedTagCountsAreExact) {
  Tracer tracer(/*enabled=*/true);
  const SpanId t1 = tracer.BeginFolded("task", 0, kInvalidSpan, 1);
  const SpanId q1 = tracer.BeginFolded("queued", 0, kInvalidSpan, 2);
  const SpanId t2 = tracer.BeginFolded("task", 0, kInvalidSpan, 3);
  // Tag spans of both names after both aggregates exist.
  tracer.Tag(t1, "placement", "vm");
  tracer.Tag(t2, "placement", "elastic");
  tracer.Tag(t2, "interrupted", "true");
  tracer.Tag(t1, "placement", "vm");
  tracer.Tag(q1, "escalated", "true");
  tracer.End(t1, 5);
  tracer.End(q1, 5);
  tracer.End(t2, 5);

  const SpanAggregate* task = tracer.FindAggregate("task");
  const SpanAggregate* queued = tracer.FindAggregate("queued");
  ASSERT_NE(task, nullptr);
  ASSERT_NE(queued, nullptr);
  EXPECT_EQ(task->TagCountOf("placement", "vm"), 2);
  EXPECT_EQ(task->TagCountOf("placement", "elastic"), 1);
  EXPECT_EQ(task->TagCountOf("interrupted", "true"), 1);
  EXPECT_EQ(task->TagCountOf("escalated", "true"), 0);
  EXPECT_EQ(task->tags.size(), 3u);
  EXPECT_EQ(queued->TagCountOf("escalated", "true"), 1);
  EXPECT_EQ(queued->tags.size(), 1u);
  EXPECT_EQ(task->count, 2);
  EXPECT_EQ(queued->count, 1);
}

TEST(TracerTest, ReusedSlotGetsNewGeneration) {
  Tracer tracer(/*enabled=*/true);
  std::vector<SpanId> seen;
  for (int i = 0; i < 100; ++i) {
    const SpanId id = tracer.BeginFolded("task", i, kInvalidSpan, 1);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), id), 0) << i;
    seen.push_back(id);
    tracer.End(id, i + 1);
  }
  // Sequential spans share one slot, each under a fresh id.
  EXPECT_EQ(tracer.folded_slots(), 1u);
  ASSERT_NE(tracer.FindAggregate("task"), nullptr);
  EXPECT_EQ(tracer.FindAggregate("task")->count, 100);

  tracer.Clear();
  EXPECT_EQ(tracer.FindAggregate("task"), nullptr);
  EXPECT_EQ(tracer.folded_slots(), 0u);
}

TEST(TracerTest, FoldedSnapshotListsAggregates) {
  Observability obs;
  obs.tracer.End(obs.tracer.BeginFolded("task", 0, kInvalidSpan, 1), 3);
  const std::string json = SnapshotJson(obs, "t");
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"num_spans\":0"), std::string::npos);
  EXPECT_NE(json.find("\"span_aggregates\":[{\"name\":\"task\",\"count\":1,"
                      "\"open\":0,\"total_ms\":3,\"max_ms\":3,"
                      "\"log2_buckets\":[0,0,1,0,"),
            std::string::npos)
      << json;
}

TEST(TracerDeathTest, RawSpanEndedTwiceOrBeforeStartDies) {
  Tracer tracer(/*enabled=*/true);
  const SpanId id = tracer.Begin("query", 10);
  EXPECT_DEATH(tracer.End(id, 5), "Check failed.*start_ms");
  tracer.End(id, 20);
  EXPECT_DEATH(tracer.End(id, 30), "span ended twice");
}

TEST(TracerDeathTest, FoldedSpanEndedTwiceDies) {
  Tracer tracer(/*enabled=*/true);
  const SpanId id = tracer.BeginFolded("task", 10, kInvalidSpan, 1);
  tracer.End(id, 20);
  EXPECT_DEATH(tracer.End(id, 30), "stale folded span id");
}

TEST(TracerDeathTest, StaleFoldedIdDies) {
  Tracer tracer(/*enabled=*/true);
  const SpanId stale = tracer.BeginFolded("task", 10, kInvalidSpan, 1);
  tracer.End(stale, 20);
  const SpanId reused = tracer.BeginFolded("task", 20, kInvalidSpan, 1);
  ASSERT_EQ(tracer.folded_slots(), 1u);
  EXPECT_DEATH(tracer.End(stale, 30), "stale folded span id");
  EXPECT_DEATH(tracer.Tag(stale, "placement", "vm"), "stale folded span id");
  EXPECT_DEATH(tracer.End(stale - (int64_t{1} << 40), 30),
               "stale folded span id");
  EXPECT_DEATH(tracer.End(-2, 30), "unknown folded span id");
  tracer.End(reused, 30);
}

TEST(TracerDeathTest, FoldedSpanEndedBeforeStartDies) {
  Tracer tracer(/*enabled=*/true);
  const SpanId id = tracer.BeginFolded("task", 10, kInvalidSpan, 1);
  EXPECT_DEATH(tracer.End(id, 9), "Check failed.*start_ms");
}

// ---------------------------------------------------------------------------
// CostLedger
// ---------------------------------------------------------------------------

TEST(CostLedgerTest, ResidualDistributesByUsageAndClosesExactly) {
  CostLedger ledger;
  ledger.EnsureCategories({"vm", "coordinator"});
  // Query 1 used 1 unit, query 2 used 3; direct attributions of $2 + $2.
  ledger.Attribute(1, 0, 2.0, 1.0);
  ledger.Attribute(2, 0, 2.0, 3.0);
  // Bill is $8: residual $4 splits 1:3. Coordinator ($5) has no usage.
  ledger.FinalizeAgainst({8.0, 5.0});

  EXPECT_DOUBLE_EQ(ledger.CategoryAttributed(0), 8.0);
  EXPECT_DOUBLE_EQ(ledger.CategoryAttributed(1), 5.0);
  EXPECT_DOUBLE_EQ(ledger.rows().at(1).dollars[0], 3.0);   // 2 + 4*(1/4)
  EXPECT_DOUBLE_EQ(ledger.rows().at(2).dollars[0], 5.0);   // 2 + remainder
  EXPECT_DOUBLE_EQ(
      ledger.rows().at(CostLedger::kOverheadQueryId).dollars[1], 5.0);
  EXPECT_DOUBLE_EQ(ledger.TotalDollars(), 13.0);
  EXPECT_DOUBLE_EQ(ledger.QueryDollars(2), 5.0);
  EXPECT_TRUE(ledger.finalized());
}

TEST(CostLedgerTest, UsageOnlyRowsReceiveResidualShare) {
  CostLedger ledger;
  ledger.EnsureCategories({"shuffle_node"});
  // Nobody can attribute shuffle-node dollars directly; only usage weights.
  ledger.AddUsage(4, 0, 10.0);
  ledger.AddUsage(9, 0, 30.0);
  ledger.FinalizeAgainst({1.0});
  EXPECT_DOUBLE_EQ(ledger.rows().at(4).dollars[0], 0.25);
  EXPECT_DOUBLE_EQ(ledger.rows().at(9).dollars[0], 0.75);
  EXPECT_DOUBLE_EQ(ledger.CategoryAttributed(0), 1.0);
}

TEST(CostLedgerTest, SchemaIsSticky) {
  CostLedger ledger;
  ledger.EnsureCategories({"a", "b"});
  ledger.EnsureCategories({"a", "b"});  // same schema: fine
  EXPECT_EQ(ledger.num_categories(), 2u);
  EXPECT_DEATH(ledger.EnsureCategories({"a"}), "schema");
}

// ---------------------------------------------------------------------------
// Engine integration: property, determinism, zero-cost guard
// ---------------------------------------------------------------------------

std::vector<QueryArrival> MakeWorkload(const ProfileLibrary& lib, int64_t n,
                                       SimTimeMs duration, uint64_t seed,
                                       double batch_fraction = 0.0) {
  WorkloadGenerator gen(&lib);
  WorkloadOptions opts;
  opts.num_queries = n;
  opts.duration_ms = duration;
  opts.arrival_period_ms = duration / 3;
  opts.batch_fraction = batch_fraction;
  opts.seed = seed;
  return gen.Generate(opts);
}

EngineOptions ChaosOptions(uint64_t seed) {
  EngineOptions opts;
  opts.seed = seed;
  opts.faults = FaultProfile::Moderate();
  opts.faults.elastic_concurrency_limit = 40;
  opts.spot_mean_lifetime_hours = 0.2;
  return opts;
}

/// Every billed cent must land on exactly one query (or overhead): for each
/// category the attributed rows sum to the meter's bill, and the grand
/// total matches the total bill. Floating-point summation order differs
/// between the ledger and the meter, hence the relative epsilon.
void ExpectLedgerMatchesBill(const CostLedger& ledger,
                             const BillingMeter& billing) {
  ASSERT_TRUE(ledger.finalized());
  for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
    const double billed =
        billing.CategoryDollars(static_cast<CostCategory>(c));
    double attributed = 0.0;
    for (const auto& [query_id, row] : ledger.rows()) {
      attributed += row.dollars[static_cast<size_t>(c)];
    }
    const double tol = 1e-9 * std::max(1.0, std::abs(billed));
    EXPECT_NEAR(attributed, billed, tol)
        << "category " << CostCategoryName(static_cast<CostCategory>(c));
    EXPECT_NEAR(ledger.CategoryAttributed(static_cast<size_t>(c)), billed,
                tol);
  }
  EXPECT_NEAR(ledger.TotalDollars(), billing.TotalDollars(),
              1e-9 * std::max(1.0, billing.TotalDollars()));
}

/// Trace invariants: every span closed with end >= start, every child
/// starts/ends inside its parent, parents always recorded before children.
void ExpectWellFormedTrace(const Tracer& tracer) {
  std::map<SpanId, const Span*> by_id;
  for (const Span& span : tracer.spans()) {
    ASSERT_TRUE(span.closed()) << span.name << " id " << span.id;
    EXPECT_GE(span.end_ms, span.start_ms) << span.name;
    by_id[span.id] = &span;
    if (span.parent == kInvalidSpan) continue;
    const auto parent = by_id.find(span.parent);
    ASSERT_NE(parent, by_id.end())
        << span.name << " has unrecorded parent " << span.parent;
    EXPECT_GE(span.start_ms, parent->second->start_ms) << span.name;
    EXPECT_LE(span.end_ms, parent->second->end_ms) << span.name;
    // Tasks inherit their query; infra spans carry -1.
    if (span.query_id >= 0 && parent->second->query_id >= 0) {
      EXPECT_EQ(span.query_id, parent->second->query_id) << span.name;
    }
  }
}

/// Raw (sampled) and folded task spans together account for every
/// placement: span counts, placement tags and interrupted tags each add up
/// to the engine's counters, and no folded span is left open.
void ExpectTaskSpansMatchCounters(const Tracer& tracer,
                                  const EngineResult& result) {
  int64_t raw_tasks = 0;
  std::map<std::pair<std::string, std::string>, int64_t> raw_tags;
  for (const Span& span : tracer.spans()) {
    if (span.name != "task") continue;
    ++raw_tasks;
    for (const auto& tag : span.tags) ++raw_tags[tag];
  }
  EXPECT_GT(raw_tasks, 0);
  const SpanAggregate* folded = tracer.FindAggregate("task");
  ASSERT_NE(folded, nullptr);
  const auto tagged = [&](const char* key, const char* value) {
    return raw_tags[{key, value}] + folded->TagCountOf(key, value);
  };
  EXPECT_EQ(raw_tasks + folded->count,
            result.tasks_on_vms + result.tasks_on_elastic);
  EXPECT_EQ(tagged("placement", "vm"), result.tasks_on_vms);
  EXPECT_EQ(tagged("placement", "elastic"), result.tasks_on_elastic);
  EXPECT_EQ(tagged("interrupted", "true"), result.tasks_retried);
  EXPECT_EQ(folded->open, 0);
  if (const SpanAggregate* queued = tracer.FindAggregate("queued")) {
    EXPECT_EQ(queued->open, 0);
  }
}

TEST(ObservabilityEngineTest, CostsSumToBillAndTraceIsWellFormed) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (const bool chaos : {false, true}) {
      const auto arrivals = MakeWorkload(lib, 50, kMillisPerHour / 6,
                                         seed * 31, /*batch_fraction=*/0.25);
      Observability obs;
      EngineOptions opts = chaos ? ChaosOptions(seed) : EngineOptions{};
      opts.seed = seed;
      opts.observability = &obs;
      CackleEngine engine(&cost, opts);
      const EngineResult result = engine.Run(arrivals, lib);

      SCOPED_TRACE(testing::Message() << "seed " << seed << " chaos "
                                      << chaos);
      ExpectLedgerMatchesBill(obs.ledger, result.billing);
      ExpectWellFormedTrace(obs.tracer);
      ExpectTaskSpansMatchCounters(obs.tracer, result);
      // Every query has an attribution row (some spend on every query).
      for (size_t q = 0; q < arrivals.size(); ++q) {
        EXPECT_GT(obs.ledger.QueryDollars(static_cast<int64_t>(q)), 0.0)
            << "query " << q;
      }
      // The migrated counters agree with the result struct.
      EXPECT_EQ(obs.metrics.CounterValue("engine.tasks_on_vms"),
                result.tasks_on_vms);
      EXPECT_EQ(obs.metrics.CounterValue("engine.tasks_on_elastic"),
                result.tasks_on_elastic);
      EXPECT_EQ(obs.metrics.CounterValue("engine.queries_completed"),
                result.queries_completed);
      EXPECT_EQ(obs.metrics.CounterValue("elastic_pool.throttled"),
                result.elastic_throttled);
      EXPECT_EQ(obs.metrics.CounterValue("object_store.retries"),
                result.store_retries);
    }
  }
}

// Satellite property: every billed cent lands on exactly one query (or
// overhead) across the canonical memoryless profiles AND every scenario in
// the library — including runs that shed queries. Shed queries get
// zero-cost rows; the ledger must still close against the bill exactly.
TEST(ObservabilityEngineTest, LedgerClosesAcrossProfilesAndScenarios) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;

  const std::pair<const char*, FaultProfile> profiles[] = {
      {"light", FaultProfile::Light()},
      {"moderate", FaultProfile::Moderate()},
      {"heavy", FaultProfile::Heavy()},
  };
  for (const auto& [name, profile] : profiles) {
    SCOPED_TRACE(name);
    const auto arrivals = MakeWorkload(lib, 40, kMillisPerHour / 6, 601,
                                       /*batch_fraction=*/0.25);
    Observability obs;
    EngineOptions opts;
    opts.seed = 601;
    opts.faults = profile;
    opts.observability = &obs;
    CackleEngine engine(&cost, opts);
    const EngineResult result = engine.Run(arrivals, lib);
    EXPECT_EQ(result.queries_completed,
              static_cast<int64_t>(arrivals.size()));
    ExpectLedgerMatchesBill(obs.ledger, result.billing);
  }

  bool any_shed = false;
  for (const char* name :
       {"diurnal_flash_crowd", "reclamation_storm", "store_brownout",
        "price_shock", "full_chaos"}) {
    SCOPED_TRACE(name);
    auto loaded = LoadNamedScenario(name);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const ChaosScenario& scenario = loaded.value();
    WorkloadGenerator gen(&lib);
    const auto arrivals = gen.Generate(scenario.workload);
    Observability obs;
    EngineOptions opts = scenario.ToEngineOptions();
    opts.observability = &obs;
    CackleEngine engine(&cost, opts);
    const EngineResult result = engine.Run(arrivals, lib);
    EXPECT_EQ(result.queries_completed + result.queries_shed,
              static_cast<int64_t>(arrivals.size()));
    any_shed = any_shed || result.queries_shed > 0;
    ExpectLedgerMatchesBill(obs.ledger, result.billing);
    ExpectTaskSpansMatchCounters(obs.tracer, result);
  }
  // The property must have been exercised on at least one shedding run,
  // or the "shed rows keep the ledger closed" claim went untested.
  EXPECT_TRUE(any_shed);
}

TEST(ObservabilityEngineTest, SnapshotJsonIsByteDeterministic) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;
  const auto arrivals =
      MakeWorkload(lib, 40, kMillisPerHour / 6, 77, /*batch_fraction=*/0.2);

  std::string snapshots[2];
  for (std::string& snapshot : snapshots) {
    Observability obs;
    EngineOptions opts = ChaosOptions(99);
    opts.observability = &obs;
    CackleEngine engine(&cost, opts);
    engine.Run(arrivals, lib);
    snapshot = SnapshotJson(obs, "determinism");
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_NE(snapshots[0].find("\"cost_attribution\""), std::string::npos);
  EXPECT_NE(snapshots[0].find("\"engine.query_latency_s\""),
            std::string::npos);
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Pins the snapshot bytes of a seeded multi-tenant chaos run (storms,
// outages, brownouts, shedding) to constants: any change to what the sink
// records or to how JsonWriter renders it fails here.
TEST(ObservabilityEngineTest, MultiTenantChaosSnapshotBytesArePinned) {
  auto loaded = LoadNamedScenario("full_chaos");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ChaosScenario scenario = std::move(loaded).value();
  scenario.workload.num_queries = 120;
  scenario.workload.num_tenants = 40;
  scenario.workload.tenant_skew = 1.0;
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;
  const auto arrivals = WorkloadGenerator(&lib).Generate(scenario.workload);

  Observability obs;
  EngineOptions opts = scenario.ToEngineOptions();
  opts.observability = &obs;
  CackleEngine engine(&cost, opts);
  const EngineResult result = engine.Run(arrivals, lib);
  EXPECT_GT(result.storm_reclaims, 0);
  EXPECT_GT(result.tenants.size(), 1u);

  const std::string snapshot = SnapshotJson(obs, "pinned");
  EXPECT_EQ(snapshot.size(), 477843u);
  EXPECT_EQ(Fnv1a(snapshot), 0xbeca464ad18374b2ULL) << std::hex << "0x" << Fnv1a(snapshot);
}

void ExpectIdenticalResults(const EngineResult& a, const EngineResult& b) {
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_DOUBLE_EQ(a.compute_cost(), b.compute_cost());
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.tasks_on_vms, b.tasks_on_vms);
  EXPECT_EQ(a.tasks_on_elastic, b.tasks_on_elastic);
  EXPECT_EQ(a.tasks_retried, b.tasks_retried);
  EXPECT_EQ(a.vms_interrupted, b.vms_interrupted);
  EXPECT_EQ(a.elastic_throttled, b.elastic_throttled);
  EXPECT_EQ(a.elastic_failures, b.elastic_failures);
  EXPECT_EQ(a.store_retries, b.store_retries);
  EXPECT_EQ(a.vm_launch_failures, b.vm_launch_failures);
  EXPECT_EQ(a.shuffle_nodes_crashed, b.shuffle_nodes_crashed);
  EXPECT_EQ(a.shuffle_partitions_lost, b.shuffle_partitions_lost);
  EXPECT_EQ(a.stages_reexecuted, b.stages_reexecuted);
  EXPECT_EQ(a.tasks_speculated, b.tasks_speculated);
  ASSERT_EQ(a.latencies_s.samples(), b.latencies_s.samples());
  ASSERT_EQ(a.batch_latencies_s.samples(), b.batch_latencies_s.samples());
}

// The zero-cost contract: attaching the observability sink must not change
// a single bit of the run — under heavy chaos, where any stray RNG draw or
// scheduled event inside the instrumentation would desynchronize streams.
TEST(ObservabilityEngineTest, RecordingDisabledIsBitIdentical) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;
  const auto arrivals =
      MakeWorkload(lib, 50, kMillisPerHour / 6, 303, /*batch_fraction=*/0.3);

  Observability obs;
  EngineOptions with_obs = ChaosOptions(5);
  with_obs.observability = &obs;
  EngineOptions without_obs = ChaosOptions(5);

  CackleEngine e1(&cost, with_obs);
  CackleEngine e2(&cost, without_obs);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  ExpectIdenticalResults(r1, r2);
  EXPECT_GT(obs.tracer.size(), 0u);
}

}  // namespace
}  // namespace cackle
