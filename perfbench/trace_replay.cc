// trace_replay: the Figure 10 line-up (fixed_0, mean_1, predictive, the full
// dynamic meta-strategy, the oracle) over 24 h of each synthetic real-world
// trace, plus one analytical-model pricing of the startup trace. A timed
// pass is the whole line-up on all three traces.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "cloud/cost_model.h"
#include "common/rng.h"
#include "harness.h"
#include "model/analytical_model.h"
#include "strategy/cost_calculator.h"
#include "strategy/dynamic_strategy.h"
#include "strategy/oracle.h"
#include "strategy/strategy.h"
#include "strategy/workload_history.h"
#include "workload/demand.h"
#include "workload/profile_library.h"
#include "workload/trace_generator.h"

namespace perfbench {
namespace {

using namespace cackle;

constexpr int kTraceHours = 24;
constexpr size_t kNumTraces = 3;

struct Trace {
  std::string name;
  DemandCurve demand;
};

/// Generates kDraws candidates from sub-streams of `seed` and keeps the one
/// whose size is closest to `target`. Spikes make a trace's peak vary ~2x
/// between seeds, and the peak sets the oracle's and the high-percentile
/// experts' memory, so every seed replays traces of about one size. The
/// number of draws is fixed so set-up work does not depend on the seed.
template <typename Series, typename Generate, typename Size>
Series DrawClosest(uint64_t seed, uint64_t stream, int64_t target,
                   Generate generate, Size size) {
  constexpr uint64_t kDraws = 16;
  Series best;
  int64_t best_distance = -1;
  for (uint64_t draw = 0; draw < kDraws; ++draw) {
    Series candidate = generate(DeriveSeed(seed, stream + 1000 * draw));
    const int64_t distance = std::abs(size(candidate) - target);
    if (best_distance < 0 || distance < best_distance) {
      best = std::move(candidate);
      best_distance = distance;
    }
  }
  return best;
}

int64_t Peak(const std::vector<int64_t>& series) {
  return *std::max_element(series.begin(), series.end());
}

std::vector<Trace> GenerateTraces(uint64_t seed, const ProfileLibrary& library,
                                  SpanTrace* trace) {
  std::vector<SimTimeMs> startup_ms;
  std::vector<int64_t> alibaba;
  std::vector<int64_t> azure;
  {
    Scope s(trace, "workload.trace_gen");
    startup_ms = DrawClosest<std::vector<SimTimeMs>>(
        seed, 1, /*target queries=*/730,
        [](uint64_t s) {
          return TraceGenerator::StartupArrivals(s, kTraceHours);
        },
        [](const std::vector<SimTimeMs>& t) {
          return static_cast<int64_t>(t.size());
        });
    alibaba = DrawClosest<std::vector<int64_t>>(
        seed, 2, /*target peak CPUs=*/400,
        [](uint64_t s) { return TraceGenerator::AlibabaCpus(s, kTraceHours); },
        Peak);
    azure = DrawClosest<std::vector<int64_t>>(
        seed, 3, /*target peak nodes=*/800,
        [](uint64_t s) { return TraceGenerator::AzureNodes(s, kTraceHours); },
        Peak);
  }
  // The startup trace is query starts; each runs a random TPC-H profile,
  // the paper's Section 5.4 assumption (as in fig10_real_workloads).
  Rng rng(DeriveSeed(seed, 4));
  std::vector<QueryArrival> arrivals;
  arrivals.reserve(startup_ms.size());
  for (SimTimeMs t : startup_ms) {
    arrivals.push_back(
        QueryArrival{t, static_cast<size_t>(rng.NextBounded(library.size()))});
  }
  for (int64_t& nodes : azure) nodes *= TraceGenerator::kTasksPerAzureNode;

  Scope s(trace, "workload.demand_curve");
  std::vector<Trace> traces;
  traces.push_back({"startup", DemandCurve::FromWorkload(arrivals, library)});
  traces.push_back(
      {"alibaba_2018", DemandCurve::FromSeries(std::move(alibaba))});
  traces.push_back(
      {"azure_synapse", DemandCurve::FromSeries(std::move(azure))});
  return traces;
}

/// Costs of the line-up on one trace. Every field is an exact function of
/// the seed, so a repeated pass must reproduce it bit for bit.
struct LineUp {
  double fixed_0 = 0.0;
  double mean_1 = 0.0;
  double predictive = 0.0;
  double dynamic = 0.0;
  double oracle = 0.0;
  double model_total = 0.0;  // startup trace only
  int64_t expert_switches = 0;
  int64_t experts = 0;

  bool operator==(const LineUp&) const = default;
};

LineUp RunLineUp(const Trace& t, bool price_with_model, const CostModel& cost,
                 uint64_t strategy_seed, SpanTrace* trace) {
  const std::vector<int64_t>& demand = t.demand.tasks_per_second();
  DynamicStrategyOptions dynamic_options;
  dynamic_options.seed = strategy_seed;
  LineUp out;
  {
    Scope s(trace, "strategy.baselines");
    FixedStrategy fixed_0(0);
    MeanStrategy mean_1(1.0);
    PredictiveStrategy predictive(cost.vm_startup_ms);
    out.fixed_0 = EvaluateStrategy(&fixed_0, demand, cost).total();
    out.mean_1 = EvaluateStrategy(&mean_1, demand, cost).total();
    out.predictive = EvaluateStrategy(&predictive, demand, cost).total();
  }
  {
    Scope s(trace, "strategy.dynamic");
    DynamicStrategy dynamic(&cost, dynamic_options);
    out.dynamic = EvaluateStrategy(&dynamic, demand, cost).total();
    out.expert_switches = dynamic.expert_switches();
    out.experts = static_cast<int64_t>(dynamic.num_experts());
  }
  {
    Scope s(trace, "strategy.oracle");
    out.oracle = ComputeOracleCost(demand, cost).total();
  }
  if (price_with_model) {
    // Priced with mean_1: the model's compute side is EvaluateStrategy,
    // timed above for every strategy, so a cheap strategy leaves the
    // model's own shuffle and coordinator accounting in this span.
    Scope s(trace, "model.run");
    MeanStrategy mean_1(1.0);
    ModelOptions model_options;
    model_options.include_shuffle = true;
    model_options.include_coordinator = true;
    out.model_total =
        AnalyticalModel(&cost).Run(&mean_1, t.demand, model_options).total();
  }
  return out;
}

/// Timed passes, each the line-up on all three traces: until `seconds`
/// have elapsed (at least one pass), or exactly `passes` when nonzero.
/// Returns the per-pass wall times; fills `first` with the first pass's
/// line-ups and checks every later pass against them.
std::vector<double> TimedPasses(const std::vector<Trace>& traces,
                                const CostModel& cost, uint64_t seed,
                                double seconds, size_t passes,
                                std::vector<LineUp>* first, Report* report,
                                SpanTrace* trace) {
  std::vector<double> pass_s;
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    const bool done = passes > 0 ? pass >= passes
                                 : pass >= 1 && SecondsSince(start) >= seconds;
    if (done) break;
    const Clock::time_point t0 = Clock::now();
    std::vector<LineUp> lineups;
    for (size_t i = 0; i < traces.size(); ++i) {
      lineups.push_back(RunLineUp(traces[i], i == 0, cost,
                                  DeriveSeed(seed, 10 + i), trace));
    }
    pass_s.push_back(SecondsSince(t0));
    if (pass == 0) {
      *first = std::move(lineups);
    } else {
      report->Check("repeat_pass_identical", lineups == *first);
    }
  }
  return pass_s;
}

/// Simulated workload hours replayed by one pass.
double SimHoursPerPass(const std::vector<Trace>& traces) {
  double hours = 0.0;
  for (const Trace& t : traces) {
    hours += static_cast<double>(t.demand.duration_seconds()) / 3600.0;
  }
  return hours;
}

}  // namespace

void MeasureHistoryRss(SpanTrace* trace, Report* report) {
  const double before = CurrentRssMb();
  Scope s(trace, "strategy.history");
  WorkloadHistory history;
  history.Append(1);
  report->Set("strategy.history_mb", CurrentRssMb() - before, "MB");
}

void RunTraceReplay(const RunConfig& config, SpanTrace* trace,
                    Report* report) {
  if (trace->enabled()) MeasureHistoryRss(trace, report);
  const ProfileLibrary library = ProfileLibrary::BuiltinTpch();
  const CostModel cost;
  SpanTrace untraced(false);

  std::vector<double> setup_s;
  std::vector<Trace> traces;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    traces = GenerateTraces(config.seed, library, &untraced);
    setup_s.push_back(SecondsSince(t0));
  }

  std::vector<LineUp> lineups;
  const std::vector<double> pass_s =
      TimedPasses(traces, cost, config.seed, config.seconds, 0, &lineups,
                  report, &untraced);

  // Output checks: the oracle is a lower bound on every strategy.
  double vs_oracle = 0.0;
  double vs_best = 0.0;
  int64_t switches = 0;
  for (size_t i = 0; i < kNumTraces; ++i) {
    const LineUp& l = lineups[i];
    for (const auto& [name, dollars] :
         {std::pair<const char*, double>{"fixed_0", l.fixed_0},
          {"mean_1", l.mean_1},
          {"predictive", l.predictive},
          {"dynamic", l.dynamic}}) {
      report->Check("oracle_le." + traces[i].name + "." + name,
                    l.oracle <= dollars);
    }
    report->Check("oracle_positive." + traces[i].name, l.oracle > 0.0);
    vs_oracle += l.dynamic / l.oracle / static_cast<double>(kNumTraces);
    const double best =
        std::min({l.fixed_0, l.mean_1, l.predictive, l.dynamic});
    vs_best = std::max(vs_best, l.dynamic / best);
    switches += l.expert_switches;
  }
  double timed = 0.0;
  for (double s : pass_s) timed += s;
  report->Set("sim_hours_per_wall_s",
              SimHoursPerPass(traces) * static_cast<double>(pass_s.size()) /
                  timed,
              "sim-h/s");
  report->Set("dynamic_cost_vs_oracle", vs_oracle, "ratio");
  report->Set("dynamic_cost_vs_best", vs_best, "ratio");

  std::vector<double> traced_pass_s;
  if (trace->enabled()) {
    GenerateTraces(config.seed, library, trace);
    std::vector<LineUp> traced_lineups;
    {
      Scope s(trace, "bench.timed");
      traced_pass_s = TimedPasses(traces, cost, config.seed, 0.0,
                                  pass_s.size(), &traced_lineups, report,
                                  trace);
    }
    report->Check("traced_equals_untraced", traced_lineups == lineups);
    report->Set("workload.trace_gen_s",
                trace->SelfSeconds("workload.trace_gen"), "s");
    report->Set("workload.demand_curve_s",
                trace->SelfSeconds("workload.demand_curve"), "s");
    const double dynamic_s = trace->SelfSeconds("strategy.dynamic");
    report->Set("strategy.dynamic_s", dynamic_s, "s");
    report->Set("strategy.dynamic_us_per_sim_s",
                dynamic_s * 1e6 /
                    (SimHoursPerPass(traces) * 3600.0 *
                     static_cast<double>(traced_pass_s.size())),
                "us/sim-s");
    report->Set("strategy.baselines_s",
                trace->SelfSeconds("strategy.baselines"), "s");
    report->Set("strategy.oracle_s", trace->SelfSeconds("strategy.oracle"),
                "s");
    report->Set("strategy.experts", static_cast<double>(lineups[0].experts),
                "count");
    report->Set("strategy.expert_switches", static_cast<double>(switches),
                "count");
    report->Set("model.run_s", trace->SelfSeconds("model.run"), "s");
  }
  report->Set("failed_share",
              static_cast<double>(report->failed_checks()) /
                  static_cast<double>(report->checks()),
              "ratio");
  ReportCommon(setup_s, pass_s, traced_pass_s, *trace, report);
}

}  // namespace perfbench
