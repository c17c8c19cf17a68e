// Run a single TPC-H query on the real in-process executor: generates the
// dataset, builds the Cackle-style stage plan, executes it task by task,
// and prints the result table and per-stage statistics.
//
//   $ ./build/examples/run_tpch_query [query=1] [scale_factor=0.01] [tasks=4]
//
// Query ids 1..22 are TPC-H; 23..25 are the DS-like additions.

#include <algorithm>
#include <iostream>
#include <limits>

#include "common/parse_number.h"
#include "common/table_printer.h"
#include "exec/datagen.h"
#include "exec/plan.h"
#include "exec/tpch_queries.h"

int main(int argc, char** argv) {
  using namespace cackle;
  using namespace cackle::exec;

  int64_t query = 1;
  double sf = 0.01;
  int64_t tasks = 4;
  const std::vector<int> ids = AllTpchQueryIds();
  if (argc > 4 ||
      (argc > 1 && (!ParseInt64(argv[1], &query) ||
                    std::find(ids.begin(), ids.end(), query) == ids.end())) ||
      (argc > 2 && (!ParseDouble(argv[2], &sf) || sf <= 0)) ||
      (argc > 3 && (!ParseInt64(argv[3], &tasks) || tasks < 1 ||
                    tasks > std::numeric_limits<int>::max()))) {
    std::cerr << "usage: run_tpch_query [query=1..25] [scale_factor=0.01, "
                 "> 0] [tasks=4, >= 1]\n";
    return 2;
  }
  PlanConfig config;
  config.tasks = static_cast<int>(tasks);

  std::cout << "generating TPC-H data at scale factor " << sf << "...\n";
  const Catalog catalog = GenerateTpch(sf);
  std::cout << catalog.TotalRows() << " rows / "
            << catalog.TotalBytes() / (1024 * 1024) << " MiB across 8 tables\n\n";

  const StagePlan plan =
      BuildTpchPlan(static_cast<int>(query), catalog, config);
  std::cout << "executing " << plan.name << " (" << plan.stages.size()
            << " stages, " << config.tasks << " tasks per parallel stage)\n\n";

  PlanExecutor executor;
  PlanRunStats stats;
  const Table result = executor.Execute(plan, &stats);

  std::cout << result.ToString(25) << "\n";

  TablePrinter stage_table({"stage", "tasks", "median_task_us", "out_rows",
                            "out_bytes"});
  for (const StageStats& s : stats.stages) {
    std::vector<int64_t> micros = s.task_micros;
    std::sort(micros.begin(), micros.end());
    stage_table.BeginRow();
    stage_table.AddCell(s.label);
    stage_table.AddCell(s.num_tasks);
    stage_table.AddCell(micros.empty() ? 0 : micros[micros.size() / 2]);
    stage_table.AddCell(s.output_rows);
    stage_table.AddCell(s.output_bytes);
  }
  stage_table.PrintText(std::cout);
  std::cout << "\ntotal wall time: " << stats.total_micros / 1000 << " ms\n";
  return 0;
}
