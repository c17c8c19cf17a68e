// cackle_sim: the one-stop experiment driver. Configure the workload, the
// environment, and the strategy line-up from flags; run the analytical
// model (and optionally the full engine simulation) and print a result
// table or CSV.
//
//   $ ./build/examples/cackle_sim --queries=4096 --hours=4 --premium=6
//   $ ./build/examples/cackle_sim --trace=azure --strategies=dynamic,mean_2
//   $ ./build/examples/cackle_sim --queries=800 --hours=1 --engine --csv
//
// Flags (all optional):
//   --queries=N        generated workload size          (default 4096)
//   --hours=H          workload duration                (default 4)
//   --period_min=P     sinusoid period in minutes       (default 60)
//   --baseline=F       uniform-arrival fraction         (default 0.3)
//   --batch=F          delay-tolerant batch fraction    (default 0)
//   --trace=NAME       replay a trace instead: azure | alibaba | startup |
//                      a CSV path ("second,demand" rows)
//   --premium=X        elastic $/s as a multiple of VM  (default 6)
//   --startup_s=S      VM startup latency               (default 180)
//   --strategies=LIST  comma list: dynamic, predictive, fixed_N, mean_X
//                      (default "fixed_0,mean_2,predictive,dynamic")
//   --engine           also run the full engine simulation per strategy
//   --seed=N           workload seed                    (default 42)
//   --csv              CSV output instead of aligned text

#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse_number.h"
#include "common/table_printer.h"
#include "engine/engine.h"
#include "model/analytical_model.h"
#include "strategy/oracle.h"
#include "strategy/workload_history.h"
#include "workload/trace_generator.h"
#include "workload/trace_io.h"

namespace {

using namespace cackle;

// One --strategies entry, checked before any work starts.
struct StrategySpec {
  std::string name;   // dynamic | predictive | fixed_N | mean_X
  int64_t fixed = 0;  // N of fixed_N
  double mean = 0;    // X of mean_X
};

struct Flags {
  int64_t queries = 4096;
  double hours = 4;
  int64_t period_min = 60;
  double baseline = 0.3;
  double batch = 0.0;
  std::string trace;
  double premium = 6.0;
  int64_t startup_s = 180;
  std::vector<StrategySpec> strategies;
  bool engine = false;
  bool csv = false;
  uint64_t seed = 42;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    *value = arg.substr(prefix.size());
    return true;
  }
  return false;
}

[[noreturn]] void BadFlag(const std::string& arg, const char* want) {
  std::cerr << "invalid flag " << arg << ": want " << want << "\n";
  std::exit(2);
}

StrategySpec ParseStrategy(const std::string& arg, const std::string& name) {
  StrategySpec spec{name};
  if (name == "dynamic" || name == "predictive") return spec;
  if (name.rfind("fixed_", 0) == 0) {
    if (!ParseInt64(name.substr(6), &spec.fixed) || spec.fixed < 0) {
      BadFlag(arg, "fixed_N with an integer N >= 0");
    }
    return spec;
  }
  if (name.rfind("mean_", 0) == 0) {
    // A history accepts demand up to INT64_MAX / (its longest lookback),
    // so a multiplier up to that lookback keeps every target in int64.
    const double max_mean =
        static_cast<double>(WorkloadHistory::DefaultLookbacks().back());
    if (!ParseDouble(name.substr(5), &spec.mean) || spec.mean < 0 ||
        spec.mean > max_mean) {
      BadFlag(arg, "mean_X with a finite X in [0, 3600]");
    }
    return spec;
  }
  BadFlag(arg, "a comma list of dynamic | predictive | fixed_N | mean_X");
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  std::string strategies = "fixed_0,mean_2,predictive,dynamic";
  std::string strategies_arg = "--strategies=" + strategies;
  // Each bound keeps the value within what the workload generator, the
  // cost model and the strategies accept, and the millisecond conversions
  // below within int64.
  constexpr int64_t kMaxMs = std::numeric_limits<int64_t>::max() / 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "queries", &value)) {
      if (!ParseInt64(value, &flags.queries) || flags.queries < 0) {
        BadFlag(arg, "an integer >= 0");
      }
    } else if (ParseFlag(arg, "hours", &value)) {
      if (!ParseDouble(value, &flags.hours) || flags.hours <= 0 ||
          flags.hours > static_cast<double>(kMaxMs / kMillisPerHour)) {
        BadFlag(arg, "a finite number of hours > 0");
      }
    } else if (ParseFlag(arg, "period_min", &value)) {
      if (!ParseInt64(value, &flags.period_min) || flags.period_min <= 0 ||
          flags.period_min > kMaxMs / kMillisPerMinute) {
        BadFlag(arg, "an integer number of minutes > 0");
      }
    } else if (ParseFlag(arg, "baseline", &value)) {
      if (!ParseDouble(value, &flags.baseline) || flags.baseline < 0 ||
          flags.baseline > 1) {
        BadFlag(arg, "a fraction in [0, 1]");
      }
    } else if (ParseFlag(arg, "batch", &value)) {
      if (!ParseDouble(value, &flags.batch) || flags.batch < 0 ||
          flags.batch > 1) {
        BadFlag(arg, "a fraction in [0, 1]");
      }
    } else if (ParseFlag(arg, "trace", &value)) {
      flags.trace = value;
    } else if (ParseFlag(arg, "premium", &value)) {
      if (!ParseDouble(value, &flags.premium) || flags.premium <= 0) {
        BadFlag(arg, "a finite multiple > 0");
      }
    } else if (ParseFlag(arg, "startup_s", &value)) {
      if (!ParseInt64(value, &flags.startup_s) || flags.startup_s < 0 ||
          flags.startup_s > kMaxMs / 1000) {
        BadFlag(arg, "an integer number of seconds >= 0");
      }
    } else if (ParseFlag(arg, "strategies", &value)) {
      strategies = value;
      strategies_arg = arg;
    } else if (ParseFlag(arg, "seed", &value)) {
      if (!ParseUint64(value, &flags.seed)) {
        BadFlag(arg, "an unsigned integer");
      }
    } else if (arg == "--engine") {
      flags.engine = true;
    } else if (arg == "--csv") {
      flags.csv = true;
    } else {
      std::cerr << "unknown flag: " << arg << " (see header comment)\n";
      std::exit(2);
    }
  }
  std::stringstream names(strategies);
  std::string name;
  while (std::getline(names, name, ',')) {
    flags.strategies.push_back(ParseStrategy(strategies_arg, name));
  }
  return flags;
}

std::unique_ptr<ProvisioningStrategy> MakeStrategy(const StrategySpec& spec,
                                                   const CostModel* cost) {
  if (spec.name == "dynamic") return std::make_unique<DynamicStrategy>(cost);
  if (spec.name == "predictive") {
    return std::make_unique<PredictiveStrategy>(cost->vm_startup_ms);
  }
  if (spec.name.rfind("fixed_", 0) == 0) {
    return std::make_unique<FixedStrategy>(spec.fixed);
  }
  return std::make_unique<MeanStrategy>(spec.mean);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  CostModel cost;
  cost.elastic_cost_per_hour = cost.vm_cost_per_hour * flags.premium;
  cost.vm_startup_ms = flags.startup_s * 1000;

  const ProfileLibrary library = ProfileLibrary::BuiltinTpch();
  std::vector<QueryArrival> arrivals;
  DemandCurve demand(0);
  bool have_arrivals = false;
  if (flags.trace.empty()) {
    WorkloadGenerator gen(&library);
    WorkloadOptions opts;
    opts.num_queries = flags.queries;
    opts.duration_ms = static_cast<SimTimeMs>(flags.hours * kMillisPerHour);
    opts.arrival_period_ms = flags.period_min * kMillisPerMinute;
    opts.baseline_load = flags.baseline;
    opts.batch_fraction = flags.batch;
    opts.seed = flags.seed;
    arrivals = gen.Generate(opts);
    demand = DemandCurve::FromWorkload(arrivals, library);
    have_arrivals = true;
  } else {
    std::vector<int64_t> series;
    if (flags.trace == "azure") {
      series = TraceGenerator::AzureNodes(3, 72);
      for (int64_t& d : series) d *= TraceGenerator::kTasksPerAzureNode;
    } else if (flags.trace == "alibaba") {
      series = TraceGenerator::AlibabaCpus(2, 72);
    } else if (flags.trace == "startup") {
      series = TraceGenerator::StartupConcurrency(1, 72);
    } else {
      auto loaded = LoadDemandCsv(flags.trace);
      if (!loaded.ok()) {
        std::cerr << "invalid flag --trace=" << flags.trace << ": "
                  << loaded.status().ToString() << "\n";
        return 2;
      }
      series = std::move(loaded).value();
    }
    demand = DemandCurve::FromSeries(std::move(series));
  }
  if (flags.engine && !have_arrivals) {
    std::cerr << "--engine requires a generated workload (no --trace)\n";
    return 2;
  }

  std::vector<std::string> headers = {"strategy", "model_vm_$",
                                      "model_elastic_$", "model_total_$"};
  if (flags.engine) {
    headers.insert(headers.end(),
                   {"engine_total_$", "engine_p90_s", "engine_vm_share_%"});
  }
  TablePrinter table(headers);

  for (const StrategySpec& spec : flags.strategies) {
    auto strategy = MakeStrategy(spec, &cost);
    const auto eval =
        EvaluateStrategy(strategy.get(), demand.tasks_per_second(), cost);
    table.BeginRow();
    table.AddCell(strategy->name());
    table.AddCell(eval.vm_cost, 2);
    table.AddCell(eval.elastic_cost, 2);
    table.AddCell(eval.total(), 2);
    if (flags.engine) {
      EngineOptions engine_opts;
      engine_opts.enable_shuffle = false;
      engine_opts.seed = flags.seed;
      engine_opts.use_dynamic = spec.name == "dynamic";
      engine_opts.fixed_target = spec.fixed;
      CackleEngine engine(&cost, engine_opts);
      const EngineResult r = engine.Run(arrivals, library);
      const double share =
          100.0 * static_cast<double>(r.tasks_on_vms) /
          static_cast<double>(r.tasks_on_vms + r.tasks_on_elastic);
      table.AddCell(r.compute_cost(), 2);
      table.AddCell(r.latencies_s.Percentile(90), 2);
      table.AddCell(share, 1);
    }
  }
  table.BeginRow();
  const OracleResult oracle =
      ComputeOracleCost(demand.tasks_per_second(), cost);
  table.AddCell("oracle");
  table.AddCell(oracle.vm_cost, 2);
  table.AddCell(oracle.elastic_cost, 2);
  table.AddCell(oracle.total(), 2);
  if (flags.engine) {
    table.AddCell("-");
    table.AddCell("-");
    table.AddCell("-");
  }

  if (flags.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.PrintText(std::cout);
  }
  return 0;
}
