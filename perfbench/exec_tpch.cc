// exec_tpch: TPC-H at SF 0.1 through the vectorized executor. Set-up
// generates the catalog, builds all 25 plans and runs one untimed warm-up
// pass on a min(4, cores)-thread PlanExecutor. A timed pass executes the 25
// plans once; every result is checked against checksums recorded with the
// single-threaded executor (results are bit-identical at any thread count).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "exec/datagen.h"
#include "exec/exec_metrics.h"
#include "exec/plan.h"
#include "exec/table.h"
#include "exec/tpch_queries.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace cackle;
using namespace cackle::exec;
namespace mn = cackle::metric_names;

constexpr double kScaleFactor = 0.1;
constexpr size_t kMinExecutions = 100;

/// Order-sensitive content digest of a result: row count, then per column a
/// wrapping sum of integer values or FNV-1a string hashes, or the bit
/// pattern of the in-order sum of doubles.
std::vector<uint64_t> Checksum(const Table& table) {
  std::vector<uint64_t> out{static_cast<uint64_t>(table.num_rows())};
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    uint64_t h = 0;
    switch (col.type()) {
      case DataType::kInt64:
        for (int64_t v : col.ints()) h += static_cast<uint64_t>(v);
        break;
      case DataType::kString:
        for (const std::string& v : col.strings()) {
          uint64_t f = 1469598103934665603ULL;
          for (char ch : v) {
            f ^= static_cast<unsigned char>(ch);
            f *= 1099511628211ULL;
          }
          h += f;
        }
        break;
      case DataType::kFloat64: {
        double sum = 0.0;
        for (double v : col.doubles()) sum += v;
        std::memcpy(&h, &sum, sizeof(h));
        break;
      }
    }
    out.push_back(h);
  }
  return out;
}

struct Setup {
  std::unique_ptr<Catalog> catalog;
  std::vector<int> query_ids;
  std::vector<StagePlan> plans;
  std::unique_ptr<PlanExecutor> executor;
};

Setup MakeSetup(uint64_t data_seed, SpanTrace* trace) {
  Setup s;
  {
    Scope span(trace, "exec.datagen");
    s.catalog =
        std::make_unique<Catalog>(GenerateTpch(kScaleFactor, data_seed));
  }
  {
    Scope span(trace, "exec.plan_build");
    s.query_ids = AllTpchQueryIds();
    for (int q : s.query_ids) s.plans.push_back(BuildTpchPlan(q, *s.catalog));
  }
  s.executor = std::make_unique<PlanExecutor>(BenchThreads());
  {
    Scope span(trace, "exec.warmup");
    for (const StagePlan& plan : s.plans) s.executor->Execute(plan);
  }
  return s;
}

/// Per-execution wall times (ms) by plan index, plus run stats when asked.
struct PassSamples {
  std::vector<std::vector<double>> ms_by_plan;
  std::vector<double> pass_s;
  std::vector<PlanRunStats> stats;
  int64_t executions = 0;
  int64_t mismatches = 0;
};

/// Whole passes over the 25 plans: until `seconds` elapse with at least
/// kMinExecutions executions, or exactly `passes` when nonzero.
PassSamples TimedPasses(const Setup& s,
                        const std::vector<std::vector<uint64_t>>& reference,
                        double seconds, size_t passes, bool keep_stats,
                        Report* report, SpanTrace* trace) {
  PassSamples out;
  out.ms_by_plan.resize(s.plans.size());
  int64_t mismatches = 0;
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    const bool done =
        passes > 0 ? pass >= passes
                   : static_cast<size_t>(out.executions) >= kMinExecutions &&
                         SecondsSince(start) >= seconds;
    if (done) break;
    double pass_s = 0.0;
    for (size_t i = 0; i < s.plans.size(); ++i) {
      PlanRunStats stats;
      const Clock::time_point t0 = Clock::now();
      Table result;
      {
        Scope span(trace, "exec.execute");
        result = s.executor->Execute(s.plans[i], keep_stats ? &stats : nullptr);
      }
      const double dt = SecondsSince(t0);
      pass_s += dt;
      out.ms_by_plan[i].push_back(dt * 1e3);
      ++out.executions;
      if (Checksum(result) != reference[i]) ++mismatches;
      if (keep_stats) out.stats.push_back(std::move(stats));
    }
    out.pass_s.push_back(pass_s);
  }
  report->Check("checksums_match", mismatches == 0,
                std::to_string(mismatches) + " of " +
                    std::to_string(out.executions) + " executions differ");
  out.mismatches = mismatches;
  return out;
}

double PoolCounter(const PlanExecutor& executor, const char* suffix) {
  MetricsRegistry registry;
  executor.ExportMetrics(&registry, mn::kPrefixExecPool);
  return static_cast<double>(
      registry.CounterValue(JoinMetricName(mn::kPrefixExecPool, suffix)));
}

}  // namespace

void RunExecTpch(const RunConfig& config, SpanTrace* trace, Report* report) {
  const uint64_t data_seed = DeriveSeed(config.seed, 40);
  SpanTrace untraced(false);

  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < kExecSetupReps; ++rep) {
    setup = Setup{};  // one catalog alive at a time
    const Clock::time_point t0 = Clock::now();
    setup = MakeSetup(data_seed, &untraced);
    setup_s.push_back(SecondsSince(t0));
  }

  // Reference results from the single-threaded executor.
  std::vector<std::vector<uint64_t>> reference;
  {
    PlanExecutor serial(1);
    for (const StagePlan& plan : setup.plans) {
      reference.push_back(Checksum(serial.Execute(plan)));
    }
  }

  const PassSamples timed = TimedPasses(setup, reference, config.seconds, 0,
                                        false, report, &untraced);
  std::vector<double> all_ms;
  for (const auto& v : timed.ms_by_plan) {
    all_ms.insert(all_ms.end(), v.begin(), v.end());
  }
  double total_s = 0.0;
  for (double s : timed.pass_s) total_s += s;
  report->Set("queries_per_wall_s",
              static_cast<double>(timed.executions) / total_s, "q/s");
  report->Set("query_wall_p50_ms", Median(all_ms), "ms");
  report->Set("query_wall_p90_ms", PercentileOf(all_ms, 90), "ms");
  report->Set("query_wall_samples", static_cast<double>(all_ms.size()),
              "count");
  report->Set("failed_share",
              static_cast<double>(timed.mismatches) /
                  static_cast<double>(timed.executions),
              "ratio");

  std::vector<double> traced_pass_s;
  if (trace->enabled()) {
    setup = Setup{};
    setup = MakeSetup(data_seed, trace);
    report->Set("exec.datagen_s", trace->SelfSeconds("exec.datagen"), "s");
    report->Set("exec.plan_build_s", trace->SelfSeconds("exec.plan_build"),
                "s");
    report->Set("exec.catalog_mb",
                static_cast<double>(setup.catalog->TotalBytes()) / 1e6, "MB");

    const double tasks_run0 = PoolCounter(*setup.executor, mn::kSuffixTasksRun);
    const double steals0 = PoolCounter(*setup.executor, mn::kSuffixSteals);
    const double busy0 = PoolCounter(*setup.executor, mn::kSuffixBusyMicros);
    ExecMetrics().Reset();
    PassSamples traced;
    {
      Scope s(trace, "bench.timed");
      traced = TimedPasses(setup, reference, 0.0, timed.pass_s.size(), true,
                           report, trace);
    }
    traced_pass_s = traced.pass_s;
    for (size_t i = 0; i < setup.query_ids.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "exec.query_ms.q%02d",
                    setup.query_ids[i]);
      report->Set(name, Median(traced.ms_by_plan[i]), "ms");
    }
    int64_t task_micros = 0;
    int64_t peak_resident = 0;
    for (const PlanRunStats& st : traced.stats) {
      for (const StageStats& stage : st.stages) {
        for (int64_t us : stage.task_micros) task_micros += us;
      }
      peak_resident = std::max(peak_resident, st.peak_resident_bytes);
    }
    double traced_s = 0.0;
    for (double s : traced.pass_s) traced_s += s;
    const double task_ms = static_cast<double>(task_micros) / 1e3;
    report->Set("exec.task_ms_total", task_ms, "ms");
    report->Set("exec.parallel_efficiency",
                task_ms / (static_cast<double>(BenchThreads()) * traced_s * 1e3),
                "ratio");
    report->Set("exec.peak_resident_mb",
                static_cast<double>(peak_resident) / 1e6, "MB");
    report->Set("exec.pool.tasks_run",
                PoolCounter(*setup.executor, mn::kSuffixTasksRun) - tasks_run0,
                "count");
    report->Set("exec.pool.steals",
                PoolCounter(*setup.executor, mn::kSuffixSteals) - steals0,
                "count");
    report->Set("exec.pool.busy_micros",
                PoolCounter(*setup.executor, mn::kSuffixBusyMicros) - busy0,
                "us");
    MetricsRegistry kernel;
    PublishExecMetrics(kernel);
    report->Set("exec.keys.fallback",
                static_cast<double>(kernel.CounterValue(mn::kExecKeysFallback)),
                "count");
    report->Set(
        "exec.flat_table.resizes",
        static_cast<double>(kernel.CounterValue(mn::kExecFlatTableResizes)),
        "count");
    report->Set("exec.gather.rows",
                static_cast<double>(kernel.CounterValue(mn::kExecGatherRows)),
                "count");
  }
  ReportCommon(setup_s, timed.pass_s, traced_pass_s, *trace, report);
}

}  // namespace perfbench
