// Regenerate the Cackle query-profile library from real executions: run all
// 25 query plans on a freshly generated TPC-H dataset, capture stage DAGs,
// per-task durations and shuffle volumes, scale them to SF 10/50/100, and
// write them in the ProfileLibrary text format.
//
//   $ ./build/examples/profile_tpch [scale_factor=0.01] [out=profiles.txt]
//
// This is the reproduction of the paper's profile-collection step
// (Section 5.1 runs each query on AWS Lambda and keeps the median run's
// statistics). Load the output with ProfileLibrary::LoadText() to drive the
// analytical model with measured rather than builtin profiles.

#include <fstream>
#include <iostream>

#include "common/parse_number.h"
#include "exec/datagen.h"
#include "exec/profiler.h"

int main(int argc, char** argv) {
  using namespace cackle;
  using namespace cackle::exec;

  double sf = 0.01;
  if (argc > 3 || (argc > 1 && (!ParseDouble(argv[1], &sf) || sf <= 0))) {
    std::cerr << "usage: profile_tpch [scale_factor=0.01, > 0] "
                 "[out=profiles.txt]\n";
    return 2;
  }
  const std::string out_path = argc > 2 ? argv[2] : "profiles.txt";

  std::cout << "generating TPC-H data at scale factor " << sf << "...\n";
  const Catalog catalog = GenerateTpch(sf);

  ProfilerOptions options;
  options.measured_scale_factor = sf;
  options.plan_config.tasks = 4;
  std::cout << "profiling all " << AllTpchQueryIds().size()
            << " query plans...\n";
  const std::vector<QueryProfile> profiles =
      ProfileAllQueries(catalog, options);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << SerializeProfiles(profiles);
  std::cout << "wrote " << profiles.size() << " profiles to " << out_path
            << "\n";

  // Quick summary of what was captured.
  for (const QueryProfile& p : profiles) {
    if (p.scale_factor != 100) continue;
    std::cout << "  " << p.name << ": " << p.stages.size() << " stages, "
              << p.TotalTasks() << " tasks, "
              << p.TotalShuffleBytes() / (1024 * 1024) << " MiB shuffled, "
              << "critical path " << MsToSeconds(p.CriticalPathMs()) << "s\n";
  }
  return 0;
}
