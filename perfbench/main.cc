// cackle_perfbench: runs one benchmark workload in this process and prints
// its report (environment, output checks, metrics with units) as one JSON
// line. run.py builds this binary and turns the report into the benchmark
// result line.
//
//   cackle_perfbench --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--trace-out <spans.json>]

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "harness.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;
using perfbench::SpanTrace;

using WorkloadFn = void (*)(const RunConfig&, SpanTrace*, Report*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"trace_replay", perfbench::RunTraceReplay},
      {"engine_paper", perfbench::RunEnginePaper},
      {"engine_chaos_tenants", perfbench::RunEngineChaosTenants},
      {"exec_tpch", perfbench::RunExecTpch},
  };
  return workloads;
}

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "cackle_perfbench: " << error
            << "\nusage: cackle_perfbench --workload <name> --seed <n> "
               "--seconds <s> [--trace 0|1] [--trace-out <path>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  const auto it = Workloads().find(config.workload);
  if (it == Workloads().end()) {
    Usage("unknown workload '" + config.workload + "'");
  }

  SpanTrace trace(config.trace);
  Report report;
  it->second(config, &trace, &report);
  if (config.trace && !config.trace_out.empty()) {
    std::ofstream out(config.trace_out);
    trace.WriteJson(out);
    if (!out) Usage("cannot write " + config.trace_out);
  }
  report.Print(std::cout, config);
  return report.failed_checks() == 0 ? 0 : 1;
}
