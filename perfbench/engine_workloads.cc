// engine_paper and engine_chaos_tenants: workloads through CackleEngine::Run.
// A timed pass is one engine run (plus, with a sink attached, writing its
// observability snapshot once); the engine is constructed outside the pass
// timer because construction is set-up.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/cost_model.h"
#include "common/metric_names.h"
#include "common/observability.h"
#include "engine/engine.h"
#include "engine/scenario.h"
#include "harness.h"
#include "model/analytical_model.h"
#include "strategy/cost_calculator.h"
#include "strategy/dynamic_strategy.h"
#include "workload/demand.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace perfbench {
namespace {

using namespace cackle;
namespace mn = cackle::metric_names;

/// The first engine run of a process pays for heap growth; with three
/// passes the median is a warm one.
constexpr size_t kMinPasses = 3;

/// One engine workload: generated arrivals plus engine options.
struct EngineCase {
  std::string name;
  std::vector<QueryArrival> arrivals;
  EngineOptions options;  // observability is attached per pass
  bool attach_sink = false;
};

struct EnginePass {
  EngineResult result;
  double run_s = 0.0;
  double snapshot_s = 0.0;
  int64_t snapshot_bytes = 0;
  std::unique_ptr<Observability> obs;
};

/// Constructs an engine (outside the pass timer) and times Run plus, with a
/// sink, one snapshot write.
EnginePass RunPass(const EngineCase& c, const ProfileLibrary& library,
                   const CostModel& cost, SpanTrace* trace) {
  EnginePass out;
  EngineOptions options = c.options;
  if (c.attach_sink) {
    out.obs = std::make_unique<Observability>();
    options.observability = out.obs.get();
  }
  std::unique_ptr<CackleEngine> engine;
  {
    Scope s(trace, "engine.ctor");
    engine = std::make_unique<CackleEngine>(&cost, options);
  }
  const Clock::time_point t0 = Clock::now();
  {
    Scope s(trace, "engine.run");
    out.result = engine->Run(c.arrivals, library);
  }
  out.run_s = SecondsSince(t0);
  if (c.attach_sink) {
    const Clock::time_point s0 = Clock::now();
    Scope s(trace, "obs.snapshot");
    CountingStream sink;
    WriteSnapshotJson(*out.obs, c.name, sink);
    out.snapshot_bytes = sink.bytes();
    out.snapshot_s = SecondsSince(s0);
  }
  return out;
}

/// The simulated outcome of a run: every field is an exact function of the
/// seed, so repeated and traced runs must reproduce it bit for bit.
struct Outcome {
  int64_t completed = 0;
  int64_t shed = 0;
  SimTimeMs makespan_ms = 0;
  double total_cost = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;

  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const EngineResult& r) {
  return Outcome{r.queries_completed,        r.queries_shed,
                 r.makespan_ms,              r.total_cost(),
                 r.latencies_s.Percentile(50), r.latencies_s.Percentile(99)};
}

void CheckPass(const EngineCase& c, const EnginePass& pass,
               const Outcome& reference, Report* report) {
  const EngineResult& r = pass.result;
  report->Check("completed_plus_shed_eq_arrivals",
                r.queries_completed + r.queries_shed ==
                    static_cast<int64_t>(c.arrivals.size()));
  report->Check("pass_outcome_identical", OutcomeOf(r) == reference);
  if (!c.attach_sink) return;
  // Per-tenant invoices fold (tenants ascending, overhead last) to the
  // meter's bill exactly, per category. No epsilon.
  const auto& invoices = pass.obs->ledger.tenant_invoices();
  for (size_t cat = 0;
       cat < static_cast<size_t>(CostCategory::kNumCategories); ++cat) {
    double fold = 0.0;
    for (const auto& [tenant, invoice] : invoices) {
      if (tenant != CostLedger::kOverheadTenantId) fold += invoice.dollars[cat];
    }
    const auto overhead = invoices.find(CostLedger::kOverheadTenantId);
    if (overhead != invoices.end()) fold += overhead->second.dollars[cat];
    report->Check("invoices_sum_to_bill." + std::to_string(cat),
                  fold == r.billing.CategoryDollars(
                              static_cast<CostCategory>(cat)));
  }
}

double CoefficientOfVariation(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(v.size() - 1)) / mean;
}

/// Timed passes: until `seconds` elapse with at least kMinPasses passes,
/// or exactly `passes` when nonzero. Checks every pass; keeps the first
/// pass's result in `first`.
std::vector<double> TimedPasses(const EngineCase& c,
                                const ProfileLibrary& library,
                                const CostModel& cost, double seconds,
                                size_t passes, EnginePass* first,
                                Report* report, SpanTrace* trace) {
  std::vector<double> pass_s;
  const Clock::time_point start = Clock::now();
  Outcome reference;
  for (size_t pass = 0;; ++pass) {
    const bool done = passes > 0 ? pass >= passes
                                 : pass >= kMinPasses &&
                                       SecondsSince(start) >= seconds;
    if (done) break;
    EnginePass p = RunPass(c, library, cost, trace);
    if (pass == 0) reference = OutcomeOf(p.result);
    CheckPass(c, p, reference, report);
    p.obs.reset();  // one sink alive at a time
    pass_s.push_back(p.run_s + p.snapshot_s);
    if (pass == 0) *first = std::move(p);
  }
  return pass_s;
}

void ReportEndToEnd(const EngineCase& c, const EnginePass& first,
                    const std::vector<double>& pass_s, Report* report) {
  const EngineResult& r = first.result;
  double timed = 0.0;
  for (double s : pass_s) timed += s;
  const double n = static_cast<double>(pass_s.size());
  report->Set("queries_per_wall_s",
              static_cast<double>(r.queries_completed) * n / timed, "q/s");
  report->Set("sim_hours_per_wall_s",
              static_cast<double>(r.makespan_ms) / 3.6e6 * n / timed,
              "sim-h/s");
  report->Set("latency_p50_s", r.latencies_s.Percentile(50), "sim-s");
  report->Set("latency_p99_s", r.latencies_s.Percentile(99), "sim-s");
  report->Set("cost_per_query_usd",
              r.total_cost() / static_cast<double>(r.queries_completed),
              "usd");
  report->Set("failed_share",
              static_cast<double>(r.queries_shed) /
                  static_cast<double>(c.arrivals.size()),
              "ratio");
  if (c.attach_sink) {
    std::vector<double> per_tenant;
    for (const auto& [tenant, outcome] : r.tenants) {
      if (outcome.queries_completed > 0) {
        per_tenant.push_back(outcome.invoice_dollars /
                             static_cast<double>(outcome.queries_completed));
      }
    }
    report->Set("tenant_cost_cv", CoefficientOfVariation(per_tenant),
                "ratio");
  }
}

/// Per-layer metrics of the traced run: span self times plus the counters
/// the engine, simulation kernel and cloud substrate export into the sink.
void ReportLayers(const EngineCase& c, const ProfileLibrary& library,
                  const CostModel& cost, const Outcome& reference,
                  SpanTrace* trace, Report* report) {
  const double run_s =
      trace->TotalSeconds("engine.run") /
      static_cast<double>(std::max<int64_t>(1, trace->Count("engine.run")));
  report->Set("engine.ctor_s",
              trace->TotalSeconds("engine.ctor") /
                  static_cast<double>(
                      std::max<int64_t>(1, trace->Count("engine.ctor"))),
              "s");
  report->Set("engine.run_s", run_s, "s");

  // One counting run with a sink attached (tracer only where the workload
  // itself traces) and the per-second series recorded. Sinks and series
  // are pure bookkeeping, so its results equal the timed runs'.
  std::unique_ptr<Observability> obs = std::make_unique<Observability>();
  obs->tracer.set_enabled(c.attach_sink);
  EngineOptions counted = c.options;
  counted.observability = obs.get();
  counted.record_series = true;
  EngineResult r;
  {
    Scope s(trace, "bench.count_run");
    CackleEngine engine(&cost, counted);
    r = engine.Run(c.arrivals, library);
  }
  report->Check("count_run_identical", OutcomeOf(r) == reference);
  const MetricsRegistry& m = obs->metrics;

  double replay_s = 0.0;
  {
    const Clock::time_point t0 = Clock::now();
    Scope s(trace, "strategy.engine_replay");
    DynamicStrategy dynamic(&cost, c.options.dynamic);
    EvaluateStrategy(&dynamic, r.demand_series, cost);
    replay_s = SecondsSince(t0);
  }
  report->Set("strategy.engine_replay_s", replay_s, "s");
  report->Set("strategy.engine_share", replay_s / run_s, "ratio");

  const int64_t executed = m.CounterValue(mn::kSimEventsExecuted);
  report->Set("engine.host_ns_per_event",
              (run_s - replay_s) * 1e9 / static_cast<double>(executed),
              "ns/event");
  report->Set("sim.events_scheduled",
              static_cast<double>(m.CounterValue(mn::kSimEventsScheduled)),
              "count");
  report->Set("sim.events_executed", static_cast<double>(executed), "count");
  report->Set("sim.events_cancelled",
              static_cast<double>(m.CounterValue(mn::kSimEventsCancelled)),
              "count");
  const Gauge* peak_queue = m.FindGauge(mn::kSimPeakQueueEntries);
  report->Set("sim.peak_queue_entries",
              peak_queue != nullptr ? peak_queue->value() : 0.0, "count");
  report->Set("sim.calendar.resizes",
              static_cast<double>(m.CounterValue(mn::kSimCalendarResizes)),
              "count");

  // Useful work: profile tasks of the queries that completed, against every
  // placement (retries, speculation and stage re-execution add placements).
  std::set<int64_t> shed_ids;
  for (const Span& span : obs->tracer.spans()) {
    if (span.name != "query") continue;
    for (const auto& [key, value] : span.tags) {
      if (key == "outcome" && value == "shed") shed_ids.insert(span.query_id);
    }
  }
  report->Check("shed_queries_identified",
                static_cast<int64_t>(shed_ids.size()) == r.queries_shed);
  int64_t useful = 0;
  for (size_t q = 0; q < c.arrivals.size(); ++q) {
    if (shed_ids.count(static_cast<int64_t>(q)) == 0) {
      useful += library.at(c.arrivals[q].profile_index).TotalTasks();
    }
  }
  const int64_t placements = r.tasks_on_vms + r.tasks_on_elastic;
  report->Set("engine.tasks_on_vms", static_cast<double>(r.tasks_on_vms),
              "count");
  report->Set("engine.tasks_on_elastic",
              static_cast<double>(r.tasks_on_elastic), "count");
  report->Set("engine.useful_task_ratio",
              static_cast<double>(useful) / static_cast<double>(placements),
              "ratio");
  report->Set("engine.tasks_retried", static_cast<double>(r.tasks_retried),
              "count");
  report->Set("engine.tasks_speculated",
              static_cast<double>(r.tasks_speculated), "count");
  report->Set("engine.stages_reexecuted",
              static_cast<double>(r.stages_reexecuted), "count");
  report->Set("engine.queries_deferred",
              static_cast<double>(r.queries_deferred), "count");
  report->Set("engine.admission_queue_peak",
              static_cast<double>(r.admission_queue_peak), "count");
  report->Set("engine.tenant.drr_rounds",
              static_cast<double>(m.CounterValue(mn::kEngineTenantDrrRounds)),
              "count");

  report->Set("shuffle.written_bytes",
              static_cast<double>(r.shuffle_written_bytes), "bytes");
  report->Set("shuffle.fallback_bytes",
              static_cast<double>(r.shuffle_fallback_bytes), "bytes");
  report->Set("shuffle.fallback_ratio",
              r.shuffle_written_bytes > 0
                  ? static_cast<double>(r.shuffle_fallback_bytes) /
                        static_cast<double>(r.shuffle_written_bytes)
                  : 0.0,
              "ratio");

  const auto counter = [&](const char* prefix, const char* suffix) {
    return static_cast<double>(
        m.CounterValue(JoinMetricName(prefix, suffix)));
  };
  report->Set("vm_fleet.vms_started",
              counter(mn::kPrefixVmFleet, mn::kSuffixVmsStarted), "count");
  report->Set("vm_fleet.launch_failures",
              counter(mn::kPrefixVmFleet, mn::kSuffixLaunchFailures),
              "count");
  report->Set("vm_fleet.vms_interrupted",
              counter(mn::kPrefixVmFleet, mn::kSuffixVmsInterrupted),
              "count");
  report->Set("elastic_pool.invocations",
              counter(mn::kPrefixElasticPool, mn::kSuffixInvocations),
              "count");
  report->Set("elastic_pool.throttled",
              counter(mn::kPrefixElasticPool, mn::kSuffixThrottled), "count");
  report->Set("elastic_pool.billed_ms",
              counter(mn::kPrefixElasticPool, mn::kSuffixBilledMs), "ms");
  report->Set("object_store.puts",
              counter(mn::kPrefixObjectStore, mn::kSuffixPuts), "count");
  report->Set("object_store.gets",
              counter(mn::kPrefixObjectStore, mn::kSuffixGets), "count");
  report->Set("object_store.retries",
              counter(mn::kPrefixObjectStore, mn::kSuffixRetries), "count");
  report->Set("object_store.circuit_rejections",
              counter(mn::kPrefixObjectStore, mn::kSuffixCircuitRejections),
              "count");

  if (c.attach_sink) {
    report->Set("obs.spans", static_cast<double>(obs->tracer.size()),
                "count");
    report->Set("obs.snapshot_s",
                trace->TotalSeconds("obs.snapshot") /
                    static_cast<double>(trace->Count("obs.snapshot")),
                "s");
    obs.reset();
    // What recording costs the engine: runs with and without the sink in
    // ABBA order, so drift in host speed hits both sides alike.
    EngineCase bare = c;
    bare.attach_sink = false;
    SpanTrace off(false);
    std::vector<double> sink_run_s;
    std::vector<double> bare_run_s;
    for (int run = 0; run < 4; ++run) {
      // Order with, without, without, with: neither side always runs first.
      const bool with_sink = run == 0 || run == 3;
      const EnginePass p = RunPass(with_sink ? c : bare, library, cost, &off);
      report->Check("sink_off_run_identical", OutcomeOf(p.result) == reference);
      (with_sink ? sink_run_s : bare_run_s).push_back(p.run_s);
    }
    report->Set("obs.sink_overhead_s",
                Median(sink_run_s) - Median(bare_run_s), "s");
  }
}

/// Shared body of both engine workloads. `make_case` is the set-up:
/// workload generation (and scenario loading); it is repeated kSetupReps
/// times together with one engine construction.
template <typename MakeCase>
EngineResult RunEngineWorkload(const RunConfig& config, MakeCase make_case,
                               SpanTrace* trace, Report* report) {
  if (trace->enabled()) MeasureHistoryRss(trace, report);
  const ProfileLibrary library = ProfileLibrary::BuiltinTpch();
  const CostModel cost;
  SpanTrace untraced(false);

  std::vector<double> setup_s;
  EngineCase c;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    c = make_case(library, &untraced);
    Observability obs;
    EngineOptions options = c.options;
    if (c.attach_sink) options.observability = &obs;
    { CackleEngine engine(&cost, options); }
    setup_s.push_back(SecondsSince(t0));
  }

  EnginePass first;
  const std::vector<double> pass_s =
      TimedPasses(c, library, cost, config.seconds, 0, &first,
                  report, &untraced);
  ReportEndToEnd(c, first, pass_s, report);

  std::vector<double> traced_pass_s;
  if (trace->enabled()) {
    const EngineCase traced_case = make_case(library, trace);
    report->Check(
        "traced_workload_identical",
        std::equal(traced_case.arrivals.begin(), traced_case.arrivals.end(),
                   c.arrivals.begin(), c.arrivals.end(),
                   [](const QueryArrival& a, const QueryArrival& b) {
                     return a.arrival_ms == b.arrival_ms &&
                            a.profile_index == b.profile_index &&
                            a.tenant == b.tenant && a.batch == b.batch;
                   }));
    EnginePass traced_first;
    {
      Scope s(trace, "bench.timed");
      traced_pass_s =
          TimedPasses(c, library, cost, 0.0, pass_s.size(), &traced_first,
                      report, trace);
    }
    report->Check("traced_equals_untraced",
                  OutcomeOf(traced_first.result) == OutcomeOf(first.result));
    report->Set("workload.generate_s",
                trace->SelfSeconds("workload.generate"), "s");
    if (c.attach_sink) {
      report->Set("obs.snapshot_mb",
                  static_cast<double>(first.snapshot_bytes) / 1e6, "MB");
    }
    ReportLayers(c, library, cost, OutcomeOf(first.result), trace, report);
  }
  ReportCommon(setup_s, pass_s, traced_pass_s, *trace, report);
  return std::move(first.result);
}

}  // namespace

void RunEnginePaper(const RunConfig& config, SpanTrace* trace,
                    Report* report) {
  // Table 1 defaults: 16384 queries over 12 h, 30% baseline load, 3 h
  // period; dynamic strategy, shuffle on, no faults, no sink.
  const auto make_case = [&](const ProfileLibrary& library, SpanTrace* t) {
    EngineCase c;
    c.name = "engine_paper";
    WorkloadOptions workload;
    workload.seed = DeriveSeed(config.seed, 20);
    {
      Scope s(t, "workload.generate");
      c.arrivals = WorkloadGenerator(&library).Generate(workload);
    }
    c.options.seed = DeriveSeed(config.seed, 21);
    c.options.dynamic.seed = DeriveSeed(config.seed, 22);
    return c;
  };
  const EngineResult result =
      RunEngineWorkload(config, make_case, trace, report);

  if (!trace->enabled()) return;
  // Model vs engine compute cost on the same workload (Figure 12/13).
  const ProfileLibrary library = ProfileLibrary::BuiltinTpch();
  const CostModel cost;
  SpanTrace untraced(false);
  const EngineCase c = make_case(library, &untraced);
  DemandCurve demand(0);
  {
    Scope s(trace, "workload.demand_curve");
    demand = DemandCurve::FromWorkload(c.arrivals, library);
  }
  report->Set("workload.demand_curve_s",
              trace->SelfSeconds("workload.demand_curve"), "s");
  double model_compute = 0.0;
  {
    Scope s(trace, "model.run");
    DynamicStrategy dynamic(&cost, c.options.dynamic);
    model_compute = AnalyticalModel(&cost).Run(&dynamic, demand).compute_cost();
  }
  report->Set("model.run_s", trace->SelfSeconds("model.run"), "s");
  const double engine_compute = result.compute_cost();
  report->Set("model.engine_compute_gap",
              std::abs(model_compute - engine_compute) / model_compute,
              "ratio");
}

void RunEngineChaosTenants(const RunConfig& config, SpanTrace* trace,
                           Report* report) {
  // full_chaos's fault environment and survival knobs over 4000 queries in
  // 4 h spread across 1000 Zipf tenants, with an observability sink. The
  // admission cap makes shedding a small nonzero share.
  const auto make_case = [&](const ProfileLibrary& library, SpanTrace* t) {
    EngineCase c;
    c.name = "engine_chaos_tenants";
    c.attach_sink = true;
    ChaosScenario scenario;
    {
      Scope s(t, "engine.load_scenario");
      StatusOr<ChaosScenario> loaded = LoadNamedScenario("full_chaos");
      if (!loaded.ok()) {
        std::cerr << "perfbench: " << loaded.status().ToString() << "\n";
        std::exit(2);
      }
      scenario = std::move(loaded).value();
    }
    // The fault environment (outage, storm, brownout and price-shock
    // windows, drawn from the scenario's own seed) is the scenario as
    // written: a handful of windows per hour would otherwise swing the work
    // per run by ~20% between seeds. The workload drawn into it, and the
    // strategy's sampling, follow --seed.
    scenario.workload.seed = DeriveSeed(config.seed, 31);
    scenario.workload.num_queries = 4000;
    scenario.workload.duration_ms = 4 * kMillisPerHour;
    scenario.workload.num_tenants = 1000;
    scenario.workload.tenant_skew = 1.0;
    scenario.admission.max_outstanding_tasks = 256;
    {
      Scope s(t, "workload.generate");
      c.arrivals = WorkloadGenerator(&library).Generate(scenario.workload);
    }
    c.options = scenario.ToEngineOptions();
    c.options.dynamic.seed = DeriveSeed(config.seed, 32);
    return c;
  };
  RunEngineWorkload(config, make_case, trace, report);
}

}  // namespace perfbench
