// Elastic warehouse: run the full Cackle engine (coordinator + compute
// layer + shuffling layer on the simulated cloud) on an hour-long
// interactive workload, and contrast its latency and cost behaviour with a
// pure-elastic (Starling-style) and a big-fixed-fleet configuration.
//
//   $ ./build/examples/elastic_warehouse [num_queries]
//
// Demonstrates the headline behaviour: query latency is the same whichever
// way the fleet is provisioned (overflow runs immediately on the elastic
// pool), while cost differs sharply — the dynamic strategy gets elasticity
// without the pure-elastic premium or the fixed fleet's idle burn.

#include <iostream>

#include "common/parse_number.h"
#include "common/table_printer.h"
#include "engine/engine.h"

int main(int argc, char** argv) {
  using namespace cackle;

  int64_t num_queries = 600;
  if (argc > 2 ||
      (argc > 1 && (!ParseInt64(argv[1], &num_queries) || num_queries <= 0))) {
    std::cerr << "usage: elastic_warehouse [num_queries=600, > 0]\n";
    return 2;
  }
  const ProfileLibrary library = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator generator(&library);
  WorkloadOptions workload;
  workload.num_queries = num_queries;
  workload.duration_ms = kMillisPerHour;
  workload.arrival_period_ms = 20 * kMillisPerMinute;
  const auto arrivals = generator.Generate(workload);
  CostModel cost;

  struct Config {
    const char* label;
    EngineOptions options;
  };
  std::vector<Config> configs;
  {
    EngineOptions dynamic;
    configs.push_back({"cackle_dynamic", dynamic});
    EngineOptions elastic_only;
    elastic_only.use_dynamic = false;
    elastic_only.fixed_target = 0;
    configs.push_back({"pure_elastic (starling)", elastic_only});
    EngineOptions fixed;
    fixed.use_dynamic = false;
    fixed.fixed_target = 600;
    configs.push_back({"fixed_600_vms", fixed});
  }

  TablePrinter table({"configuration", "p50_s", "p90_s", "p99_s", "vm_$",
                      "elastic_$", "shuffle_$", "total_$", "tasks_on_vms_%"});
  for (const Config& config : configs) {
    CackleEngine engine(&cost, config.options);
    const EngineResult r = engine.Run(arrivals, library);
    const double vm_share =
        100.0 * static_cast<double>(r.tasks_on_vms) /
        static_cast<double>(r.tasks_on_vms + r.tasks_on_elastic);
    table.BeginRow();
    table.AddCell(config.label);
    table.AddCell(r.latencies_s.Percentile(50), 1);
    table.AddCell(r.latencies_s.Percentile(90), 1);
    table.AddCell(r.latencies_s.Percentile(99), 1);
    table.AddCell(r.billing.CategoryDollars(CostCategory::kVm), 2);
    table.AddCell(r.billing.CategoryDollars(CostCategory::kElasticPool), 2);
    table.AddCell(r.billing.ShuffleDollars(), 2);
    table.AddCell(r.total_cost(), 2);
    table.AddCell(vm_share, 1);
  }
  std::cout << num_queries << " TPC-H queries in one hour, hybrid execution:\n\n";
  table.PrintText(std::cout);
  std::cout << "\nNote the latency columns: provisioning only moves cost,\n"
               "never latency, because work overflows to the elastic pool\n"
               "instead of queueing.\n";
  return 0;
}
