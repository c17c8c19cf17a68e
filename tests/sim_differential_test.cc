// Engine-scope pins of the event core's execution order.
//
// A representative mixed workload (with faults, so the cancel paths are
// hot: straggler speculation, retries, timeouts), a multi-tenant
// admission/deferral workload and the reclamation_storm chaos scenario each
// run through the engine, and a fingerprint of every EngineResult field —
// including the raw per-query and per-tenant latency samples — must equal a
// committed constant. These constants were recorded when the binary-heap and
// calendar-queue schedulers still ran side by side and agreed bit for bit,
// so any change to event order (the calendar wheel, the arrival stream, or
// their merge) that alters a result fails here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "cloud/cost_model.h"
#include "engine/engine.h"
#include "engine/scenario.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace cackle {
namespace {

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

/// One uint64 over every EngineResult field, doubles by bit pattern, so a
/// committed constant pins the whole result.
uint64_t Fingerprint(const EngineResult& r) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 1099511628211ULL;
  };
  const auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  const auto mix_samples = [&mix, &mix_double](const SampleSet& s) {
    mix(s.samples().size());
    for (const double v : s.samples()) mix_double(v);
  };
  mix_double(r.total_cost());
  mix_double(r.compute_cost());
  for (const int64_t v :
       {r.makespan_ms, r.queries_completed, r.tasks_on_vms,
        r.tasks_on_elastic, r.peak_concurrent_tasks, r.tasks_retried,
        r.vms_interrupted, r.batch_tasks_delayed, r.batch_tasks_escalated,
        r.shuffle_fallback_bytes, r.shuffle_written_bytes,
        r.elastic_throttled, r.elastic_failures, r.store_retries,
        r.vm_launch_failures, r.shuffle_nodes_crashed,
        r.shuffle_partitions_lost, r.stages_reexecuted, r.tasks_speculated,
        r.queries_shed, r.queries_deferred, r.admission_queue_peak,
        r.retry_budget_exhausted, r.hedged_reads, r.hedged_wins,
        r.storm_reclaims, r.store_circuit_trips, r.store_circuit_rejections,
        r.tenant_queue_peak}) {
    mix(static_cast<uint64_t>(v));
  }
  for (const std::vector<int64_t>* series :
       {&r.demand_series, &r.target_series, &r.active_vm_series}) {
    mix(series->size());
    for (const int64_t v : *series) mix(static_cast<uint64_t>(v));
  }
  mix_samples(r.latencies_s);
  mix_samples(r.batch_latencies_s);
  mix(r.tenants.size());
  for (const auto& [tenant, t] : r.tenants) {
    mix(static_cast<uint64_t>(tenant));
    mix(static_cast<uint64_t>(t.queries_completed));
    mix(static_cast<uint64_t>(t.queries_shed));
    mix(static_cast<uint64_t>(t.queries_deferred));
    mix_double(t.invoice_dollars);
    mix_samples(t.latencies_s);
  }
  return h;
}

EngineResult RunEngine(const EngineOptions& opts,
                       const std::vector<QueryArrival>& arrivals,
                       const ProfileLibrary& lib, const CostModel& cost) {
  CackleEngine engine(&cost, opts);
  return engine.Run(arrivals, lib);
}

void ExpectPinned(const EngineResult& r, uint64_t golden) {
  const uint64_t fp = Fingerprint(r);
  EXPECT_EQ(fp, golden) << std::hex << "0x" << fp;
}

TEST(SimDifferentialTest, RepresentativeWorkloadIsPinned) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  // Mixed interactive/batch with faults: spot interruptions, stragglers,
  // and elastic failures keep the Cancel()/re-schedule paths hot.
  const auto arrivals =
      MakeWorkload(lib, 120, kMillisPerHour / 4, 733, /*batch_fraction=*/0.2);
  CostModel cost;

  EngineOptions opts;
  opts.spot_mean_lifetime_hours = 0.2;
  opts.faults.elastic_failure_rate = 0.01;
  opts.faults.elastic_straggler_rate = 0.02;
  opts.faults.elastic_straggler_slowdown = 4.0;

  const EngineResult result = RunEngine(opts, arrivals, lib, cost);

  EXPECT_GT(result.queries_completed, 0);
  EXPECT_GT(result.tasks_retried + result.tasks_speculated, 0)
      << "workload did not exercise the cancel paths";
  ExpectPinned(result, 0xd9cbbdeb595c0ca4ULL);
}

// Multi-tenant admission control + retry-budget deferral: the DRR drain,
// per-tenant shed pass, and deferred-task re-admission all execute on
// coordinator ticks, so simultaneous re-admission events are exactly where
// FIFO-among-ties matters. Locks down the ordering guarantee for the
// per-tenant queues.
TEST(SimDifferentialTest, MultiTenantAdmissionAndDeferralIsPinned) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions wopts;
  wopts.num_queries = 160;
  wopts.duration_ms = kMillisPerHour / 4;
  wopts.arrival_period_ms = wopts.duration_ms / 3;
  wopts.batch_fraction = 0.15;
  wopts.num_tenants = 5;
  wopts.tenant_skew = 1.2;
  wopts.seed = 917;
  const auto arrivals = gen.Generate(wopts);
  CostModel cost;

  EngineOptions opts;
  opts.admission.max_outstanding_tasks = 40;
  opts.admission.shed_after_ms = 5 * kMillisPerMinute;
  opts.elastic_retry_budget_ms = 2'000;  // retry budget -> deferrals
  opts.faults.elastic_concurrency_limit = 48;

  const EngineResult result = RunEngine(opts, arrivals, lib, cost);

  EXPECT_GT(result.queries_completed, 0);
  EXPECT_GT(result.queries_deferred, 0)
      << "workload did not exercise the admission queues";
  EXPECT_GT(result.tenants.size(), 1u);
  ExpectPinned(result, 0x3bbecbb244f0f5cfULL);
}

TEST(SimDifferentialTest, ReclamationStormScenarioIsPinned) {
  auto loaded = LoadNamedScenario("reclamation_storm");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ChaosScenario& scenario = *loaded;

  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  const auto arrivals = gen.Generate(scenario.workload);
  CostModel cost;

  const EngineOptions opts = scenario.ToEngineOptions();
  const EngineResult result = RunEngine(opts, arrivals, lib, cost);

  EXPECT_GT(result.storm_reclaims, 0)
      << "scenario did not trigger reclamation storms";
  ExpectPinned(result, 0x755e8d745fb23fe4ULL);
}

}  // namespace
}  // namespace cackle
