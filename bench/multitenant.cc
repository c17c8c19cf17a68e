// Multi-tenant sweep: 100 / 1k / 10k tenants sharing one engine under the
// default mixed workload. Reports per-tenant cost isolation (dispersion of
// per-query invoice cost across tenants — flat when attribution is fair)
// and p99 stability (global and worst-tenant p99 vs the single-tenant
// baseline). Emits BENCH_multitenant.json; EXPERIMENTS.md documents the
// schema.

#include <cmath>
#include <fstream>

#include "bench/bench_common.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "sim/sweep_runner.h"

namespace {

using namespace cackle;
using namespace cackle::bench;

struct CellResult {
  int64_t tenants_requested = 0;
  int64_t tenants_active = 0;  // tenants that actually received queries
  int64_t arrivals = 0;
  EngineResult result;
  // Per-tenant per-completed-query invoice cost, one entry per tenant with
  // at least one completed query.
  std::vector<double> cost_per_query;
  // Per-tenant interactive p99, one entry per tenant with samples.
  std::vector<double> tenant_p99_s;
};

CellResult RunCell(int64_t num_tenants, uint64_t seed) {
  WorkloadOptions wopts = DefaultWorkload();
  wopts.num_tenants = num_tenants;
  wopts.tenant_skew = 1.0;  // Zipf-ish: a few heavy tenants, a long tail
  wopts.seed = seed;
  WorkloadGenerator gen(&Library());
  const auto arrivals = gen.Generate(wopts);

  CostModel cost;
  // A fresh sink per cell: the ledger finalizes once per engine run, and
  // per-tenant invoices exist only when a ledger is attached.
  Observability obs;
  EngineOptions opts;
  opts.dynamic = DefaultDynamicOptions();
  opts.observability = &obs;
  // A generous admission cap keeps the round-robin admission path
  // exercised at arrival peaks without turning the sweep into a queueing
  // benchmark (no shed SLO is set; the cap only trims the highest bursts).
  opts.admission.max_outstanding_tasks = 1'024;
  CackleEngine engine(&cost, opts);

  CellResult cell;
  cell.tenants_requested = num_tenants;
  cell.arrivals = static_cast<int64_t>(arrivals.size());
  cell.result = engine.Run(arrivals, Library());
  cell.tenants_active = static_cast<int64_t>(cell.result.tenants.size());
  for (const auto& [tenant, outcome] : cell.result.tenants) {
    if (outcome.queries_completed > 0) {
      cell.cost_per_query.push_back(
          outcome.invoice_dollars /
          static_cast<double>(outcome.queries_completed));
    }
    if (!outcome.latencies_s.samples().empty()) {
      cell.tenant_p99_s.push_back(outcome.latencies_s.Percentile(99));
    }
  }
  return cell;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Coefficient of variation: the cost-isolation headline. 0 = every tenant
// pays exactly the same per completed query.
double CoefficientOfVariation(const std::vector<double>& v) {
  const double mean = Mean(v);
  if (v.size() < 2 || mean <= 0.0) return 0.0;
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(v.size() - 1)) / mean;
}

void WriteArtifact(const std::vector<CellResult>& cells, double baseline_p99) {
  std::string path = "BENCH_multitenant.json";
  if (const char* dir = std::getenv("CACKLE_BENCH_OUT_DIR");
      dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  JsonWriter w(out);
  w.BeginObject();
  w.Field("schema_version", static_cast<int64_t>(1));
  w.Field("bench", "multitenant");
  w.Field("fast_mode", FastMode());
  w.Field("baseline_p99_s", baseline_p99);
  w.Key("cells");
  w.BeginArray();
  for (const CellResult& c : cells) {
    const EngineResult& r = c.result;
    const double p99 = r.latencies_s.Percentile(99);
    w.BeginObject();
    w.Field("tenants", c.tenants_requested);
    w.Field("tenants_active", c.tenants_active);
    w.Field("arrivals", c.arrivals);
    w.Field("completed", r.queries_completed);
    w.Field("shed", r.queries_shed);
    w.Field("deferred", r.queries_deferred);
    w.Field("total_cost", r.total_cost());
    w.Field("p99_s", p99);
    w.Field("p99_vs_single_tenant",
            baseline_p99 > 0.0 ? p99 / baseline_p99 : 0.0);
    w.Key("cost_isolation");
    w.BeginObject();
    w.Field("mean_cost_per_query", Mean(c.cost_per_query));
    w.Field("cost_per_query_cv", CoefficientOfVariation(c.cost_per_query));
    w.Field("cost_per_query_p99",
            Percentile(c.cost_per_query, 99));
    w.EndObject();
    w.Key("latency_isolation");
    w.BeginObject();
    w.Field("worst_tenant_p99_s", Percentile(c.tenant_p99_s, 100));
    w.Field("median_tenant_p99_s", Percentile(c.tenant_p99_s, 50));
    w.EndObject();
    w.Key("counters");
    w.BeginObject();
    w.Field("tenant_queue_peak", r.tenant_queue_peak);
    w.Field("admission_queue_peak", r.admission_queue_peak);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main() {
  PrintHeader("Multi-tenant sweep: cost isolation and p99 stability",
              "One engine shared by 100/1k/10k tenants under the default "
              "mixed workload; per-tenant invoices from the cost ledger.");

  std::vector<int64_t> sweep = {100, 1'000, 10'000};
  if (FastMode()) sweep = {50, 200, 1'000};

  // Cell 0 is the single-tenant baseline the stability ratios are against;
  // cells 1..N are the tenant-count sweep. Deterministic at any thread
  // count: seeds derive from the cell index.
  SweepRunner runner(SweepThreads());
  const std::vector<CellResult> cells = runner.Map<CellResult>(
      static_cast<int>(sweep.size()) + 1, [&](int cell) {
        const int64_t tenants = cell == 0 ? 1 : sweep[cell - 1];
        return RunCell(tenants, SweepRunner::CellSeed(1225, cell));
      });
  const double baseline_p99 = cells[0].result.latencies_s.Percentile(99);

  TablePrinter table({"tenants", "arrivals", "completed", "p99_s",
                      "p99_vs_1t", "cost_per_q_cv", "worst_tenant_p99_s",
                      "total_cost"});
  for (const CellResult& c : cells) {
    const double p99 = c.result.latencies_s.Percentile(99);
    table.BeginRow();
    table.AddCell(c.tenants_requested);
    table.AddCell(c.arrivals);
    table.AddCell(c.result.queries_completed);
    table.AddCell(p99, 2);
    table.AddCell(baseline_p99 > 0.0 ? p99 / baseline_p99 : 0.0, 3);
    table.AddCell(CoefficientOfVariation(c.cost_per_query), 4);
    table.AddCell(Percentile(c.tenant_p99_s, 100), 2);
    table.AddCell(c.result.total_cost(), 2);
  }
  table.PrintText(std::cout);

  WriteArtifact({cells.begin() + 1, cells.end()}, baseline_p99);
  return 0;
}
