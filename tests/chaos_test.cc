#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/scenario.h"

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

int64_t TotalTasks(const ProfileLibrary& lib,
                   const std::vector<QueryArrival>& arrivals) {
  int64_t tasks = 0;
  for (const auto& qa : arrivals) {
    tasks += lib.at(qa.profile_index).TotalTasks();
  }
  return tasks;
}

void ExpectIdenticalResults(const EngineResult& a, const EngineResult& b) {
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_DOUBLE_EQ(a.compute_cost(), b.compute_cost());
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.tasks_on_vms, b.tasks_on_vms);
  EXPECT_EQ(a.tasks_on_elastic, b.tasks_on_elastic);
  EXPECT_EQ(a.tasks_retried, b.tasks_retried);
  EXPECT_EQ(a.vms_interrupted, b.vms_interrupted);
  EXPECT_EQ(a.elastic_throttled, b.elastic_throttled);
  EXPECT_EQ(a.elastic_failures, b.elastic_failures);
  EXPECT_EQ(a.store_retries, b.store_retries);
  EXPECT_EQ(a.vm_launch_failures, b.vm_launch_failures);
  EXPECT_EQ(a.shuffle_nodes_crashed, b.shuffle_nodes_crashed);
  EXPECT_EQ(a.shuffle_partitions_lost, b.shuffle_partitions_lost);
  EXPECT_EQ(a.stages_reexecuted, b.stages_reexecuted);
  EXPECT_EQ(a.tasks_speculated, b.tasks_speculated);
  EXPECT_EQ(a.queries_shed, b.queries_shed);
  EXPECT_EQ(a.queries_deferred, b.queries_deferred);
  EXPECT_EQ(a.admission_queue_peak, b.admission_queue_peak);
  EXPECT_EQ(a.retry_budget_exhausted, b.retry_budget_exhausted);
  EXPECT_EQ(a.hedged_reads, b.hedged_reads);
  EXPECT_EQ(a.hedged_wins, b.hedged_wins);
  EXPECT_EQ(a.storm_reclaims, b.storm_reclaims);
  EXPECT_EQ(a.store_circuit_trips, b.store_circuit_trips);
  EXPECT_EQ(a.store_circuit_rejections, b.store_circuit_rejections);
  // Bit-identical per-query latencies, not just identical percentiles.
  ASSERT_EQ(a.latencies_s.samples(), b.latencies_s.samples());
  ASSERT_EQ(a.batch_latencies_s.samples(), b.batch_latencies_s.samples());
}

// The contract the whole chaos substrate is built around: with every fault
// rate at zero, the machinery must be invisible. Knobs that only matter
// under faults (straggler timeout, retry budget, breaker, hedging,
// admission) must not perturb a fault-free run, and every chaos counter
// must stay zero.
TEST(ChaosTest, ZeroFaultProfileIsBitIdentical) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 80, kMillisPerHour / 4, 101);
  CostModel cost;

  EngineOptions defaults;  // faults all zero

  EngineOptions perturbed;
  perturbed.faults = FaultProfile::None();
  perturbed.straggler_timeout_multiplier = 0.0;  // speculation fully off
  // Degradation machinery that must be inert on a healthy substrate: a
  // retry budget nothing exhausts, a breaker nothing trips, a hedge delay
  // no read ever exceeds (fault-free store reads are synchronous), and an
  // admission threshold the workload never reaches.
  perturbed.elastic_retry_budget_ms = 5'000;
  perturbed.store_breaker.failure_threshold = 3;
  perturbed.store_breaker.open_ms = 10'000;
  perturbed.hedge_after_ms = 1;
  perturbed.admission.max_outstanding_tasks = 1'000'000;
  perturbed.admission.shed_after_ms = 1'000;
  // A chaos horizon with every process rate at zero builds no timeline.
  perturbed.chaos.horizon_ms = kMillisPerHour;

  CackleEngine e1(&cost, defaults);
  CackleEngine e2(&cost, perturbed);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  ExpectIdenticalResults(r1, r2);

  EXPECT_EQ(r1.elastic_throttled, 0);
  EXPECT_EQ(r1.elastic_failures, 0);
  EXPECT_EQ(r1.store_retries, 0);
  EXPECT_EQ(r1.vm_launch_failures, 0);
  EXPECT_EQ(r1.shuffle_nodes_crashed, 0);
  EXPECT_EQ(r1.shuffle_partitions_lost, 0);
  EXPECT_EQ(r1.stages_reexecuted, 0);
  EXPECT_EQ(r1.tasks_speculated, 0);
  EXPECT_EQ(r1.queries_shed, 0);
  EXPECT_EQ(r1.queries_deferred, 0);
  EXPECT_EQ(r1.admission_queue_peak, 0);
  EXPECT_EQ(r1.retry_budget_exhausted, 0);
  EXPECT_EQ(r1.hedged_reads, 0);
  EXPECT_EQ(r1.hedged_wins, 0);
  EXPECT_EQ(r1.storm_reclaims, 0);
  EXPECT_EQ(r1.store_circuit_trips, 0);
  EXPECT_EQ(r1.store_circuit_rejections, 0);
}

TEST(ChaosTest, ThrottledElasticRequestsBackOffAndComplete) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 30, kMillisPerHour / 4, 102);
  CostModel cost;
  EngineOptions opts;
  opts.use_dynamic = false;
  opts.fixed_target = 0;  // everything wants the pool
  opts.enable_shuffle = false;
  opts.faults.elastic_concurrency_limit = 8;  // far below peak demand
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 30);
  EXPECT_GT(r.elastic_throttled, 0);
  // Throttling delays work but never drops it: each task is placed once.
  EXPECT_EQ(r.tasks_on_elastic, TotalTasks(lib, arrivals));
  EXPECT_EQ(r.tasks_on_vms, 0);
}

TEST(ChaosTest, ThrottlingDegradesLatencyGracefully) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 30, kMillisPerHour / 4, 103);
  CostModel cost;
  EngineOptions free_opts;
  free_opts.use_dynamic = false;
  free_opts.fixed_target = 0;
  free_opts.enable_shuffle = false;
  EngineOptions throttled_opts = free_opts;
  throttled_opts.faults.elastic_concurrency_limit = 8;
  CackleEngine e1(&cost, free_opts);
  CackleEngine e2(&cost, throttled_opts);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  // Queuing behind 8 slots must cost latency (otherwise the limit is not
  // binding and the test is vacuous) but the workload still finishes.
  EXPECT_GT(r2.latencies_s.Percentile(99), r1.latencies_s.Percentile(99));
  EXPECT_EQ(r2.queries_completed, 30);
}

TEST(ChaosTest, ElasticFailuresAreReplacedWithoutLosingWork) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 40, kMillisPerHour / 4, 104);
  CostModel cost;
  EngineOptions opts;
  opts.use_dynamic = false;
  opts.fixed_target = 0;
  opts.enable_shuffle = false;
  opts.faults.elastic_failure_rate = 0.2;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 40);
  EXPECT_GT(r.elastic_failures, 0);
  // Placements = tasks + failed attempts that were re-placed.
  EXPECT_EQ(r.tasks_on_elastic,
            TotalTasks(lib, arrivals) + r.elastic_failures);
}

TEST(ChaosTest, StragglersGetSpeculativeCopies) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 40, kMillisPerHour / 4, 105);
  CostModel cost;
  EngineOptions opts;
  opts.use_dynamic = false;
  opts.fixed_target = 0;
  opts.enable_shuffle = false;
  opts.faults.elastic_straggler_rate = 0.25;
  opts.faults.elastic_straggler_slowdown = 8.0;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 40);
  EXPECT_GT(r.tasks_speculated, 0);

  // Speculation bounds the tail: p99 with speculation beats p99 without.
  EngineOptions no_spec = opts;
  no_spec.straggler_timeout_multiplier = 0.0;
  CackleEngine baseline(&cost, no_spec);
  const EngineResult rb = baseline.Run(arrivals, lib);
  EXPECT_EQ(rb.tasks_speculated, 0);
  EXPECT_LT(r.latencies_s.Percentile(99), rb.latencies_s.Percentile(99));
}

TEST(ChaosTest, VmLaunchFailuresAreReRequested) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 40, kMillisPerHour / 4, 106);
  CostModel cost;
  EngineOptions opts;
  opts.use_dynamic = false;
  opts.fixed_target = 100;
  opts.enable_shuffle = false;
  opts.faults.vm_launch_failure_rate = 0.3;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 40);
  EXPECT_GT(r.vm_launch_failures, 0);
  EXPECT_GT(r.tasks_on_vms, 0);  // the fleet still came up
}

TEST(ChaosTest, ShuffleCrashesReexecuteProducingStages) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 120, kMillisPerHour / 2, 107);
  CostModel cost;
  EngineOptions opts;  // shuffle on
  opts.faults.shuffle_crash_rate_per_hour = 20.0;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 120);
  EXPECT_GT(r.shuffle_nodes_crashed, 0);
  EXPECT_GT(r.shuffle_partitions_lost, 0);
  EXPECT_GT(r.stages_reexecuted, 0);
  // Re-execution re-writes the regenerated partitions, so total bytes
  // written exceeds the workload's declared shuffle output.
  int64_t declared_bytes = 0;
  for (const auto& qa : arrivals) {
    declared_bytes += lib.at(qa.profile_index).TotalShuffleBytes();
  }
  EXPECT_GT(r.shuffle_written_bytes, declared_bytes);
}

TEST(ChaosTest, StoreErrorsAreRetriedUnderHeavyFaults) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 120, kMillisPerHour / 2, 108);
  CostModel cost;
  EngineOptions opts;  // shuffle on => object-store fallback traffic
  opts.faults.store_error_rate = 0.3;
  opts.faults.shuffle_crash_rate_per_hour = 10.0;  // force extra churn
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 120);
  if (r.shuffle_fallback_bytes > 0) {
    EXPECT_GT(r.store_retries, 0);
  }
}

// Satellite: determinism regression with every chaos source enabled at
// once — same seed, same workload => identical results down to the
// per-query latency samples.
TEST(ChaosTest, DeterministicUnderFullChaos) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals =
      MakeWorkload(lib, 80, kMillisPerHour / 4, 109, /*batch_fraction=*/0.3);
  CostModel cost;
  EngineOptions opts;
  opts.spot_mean_lifetime_hours = 0.1;
  opts.faults = FaultProfile::Moderate();
  opts.faults.elastic_concurrency_limit = 200;
  CackleEngine e1(&cost, opts);
  CackleEngine e2(&cost, opts);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  EXPECT_EQ(r1.queries_completed, 80);
  ExpectIdenticalResults(r1, r2);
}

// Satellite: a reclaimed VM while batch tasks sit in the queue. Batch work
// must drain — re-queued interrupted tasks included — and overdue tasks
// escalate to the elastic pool within the SLA.
TEST(ChaosTest, SpotInterruptionsWithQueuedBatchWorkStillDrain) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals =
      MakeWorkload(lib, 40, kMillisPerHour / 4, 110, /*batch_fraction=*/1.0);
  CostModel cost;
  EngineOptions opts;
  opts.enable_shuffle = false;
  opts.use_dynamic = false;
  opts.fixed_target = 10;  // small fleet: batch work queues behind it
  opts.spot_mean_lifetime_hours = 0.05;  // reclaim every ~3 minutes
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 40);
  EXPECT_EQ(r.batch_latencies_s.size(), 40u);
  EXPECT_GT(r.vms_interrupted, 0);
  EXPECT_GT(r.batch_tasks_delayed, 0);
  // A 10-VM fleet cannot carry this workload within the SLA: escalation
  // must have kicked in rather than batch work waiting forever.
  EXPECT_GT(r.batch_tasks_escalated, 0);
  // Batch p99 is bounded by queueing + SLA, not unbounded starvation:
  // every task waits at most kMaxBatchDelayMs before running somewhere.
  EXPECT_GT(r.batch_latencies_s.Percentile(99),
            r.batch_latencies_s.Percentile(10));
}

// Everything at once, cranked high: no fault combination may lose work.
TEST(ChaosTest, HeavyChaosCompletesEveryQuery) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals =
      MakeWorkload(lib, 60, kMillisPerHour / 4, 111, /*batch_fraction=*/0.2);
  CostModel cost;
  EngineOptions opts;
  opts.spot_mean_lifetime_hours = 0.05;
  opts.faults = FaultProfile::Heavy();
  opts.faults.elastic_concurrency_limit = 100;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 60);
  EXPECT_EQ(static_cast<int64_t>(r.latencies_s.size() +
                                 r.batch_latencies_s.size()),
            60);
  EXPECT_GT(r.total_cost(), 0.0);
}

// ---------------------------------------------------------------------------
// Scenario library: parser
// ---------------------------------------------------------------------------

TEST(ScenarioTest, ParsesKeysCommentsAndWhitespace) {
  const StatusOr<ChaosScenario> parsed = ParseScenario(
      "# header comment\n"
      "name = smoke   # trailing comment\n"
      "  description =  spaces survive trimming \n"
      "seed = 99\n"
      "\n"
      "workload.num_queries = 42\n"
      "chaos.storm.storms_per_hour = 2.5\n"
      "breaker.failure_threshold = 4\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ChaosScenario& s = parsed.value();
  EXPECT_EQ(s.name, "smoke");
  EXPECT_EQ(s.description, "spaces survive trimming");
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.workload.num_queries, 42);
  EXPECT_DOUBLE_EQ(s.chaos.storm.storms_per_hour, 2.5);
  EXPECT_EQ(s.store_breaker.failure_threshold, 4);
}

TEST(ScenarioTest, UnknownKeyIsRejected) {
  // A typo must not silently weaken the fault environment.
  const auto parsed = ParseScenario("name = x\nchaos.strom.storms_per_hour = 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().ToString().find("unknown key"), std::string::npos);
}

TEST(ScenarioTest, BadNumberIsRejected) {
  const auto parsed = ParseScenario("name = x\nseed = twelve\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);

  const auto negative = ParseScenario("name = x\nseed = -1\n");
  ASSERT_FALSE(negative.ok());

  const auto trailing = ParseScenario("name = x\nretry_budget_ms = 5s\n");
  ASSERT_FALSE(trailing.ok());

  for (const char* value : {"nan", "NAN", "inf", "-inf", "infinity"}) {
    SCOPED_TRACE(value);
    const auto non_finite = ParseScenario(
        std::string("name = x\nfaults.elastic_failure_rate = ") + value);
    ASSERT_FALSE(non_finite.ok());
    EXPECT_EQ(non_finite.status().code(), StatusCode::kInvalidArgument);
  }

  // An int-typed key rejects a value that does not fit instead of
  // truncating it.
  const auto wide =
      ParseScenario("name = x\nbreaker.failure_threshold = 4294967297\n");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioTest, OutOfRangeValueIsRejectedNamingTheKey) {
  // One out-of-range value per bounded key. Each would otherwise fail a
  // CHECK in the engine's constructor, or make workload generation abort
  // or loop forever.
  const std::pair<const char*, const char*> kCases[] = {
      {"workload.num_queries", "-1"},
      {"workload.duration_ms", "0"},
      {"workload.arrival_period_ms", "0"},
      {"faults.elastic_failure_rate", "0.96"},
      {"faults.elastic_concurrency_limit", "-1"},
      {"faults.elastic_straggler_rate", "-0.1"},
      {"faults.elastic_straggler_slowdown", "0"},
      {"faults.store_error_rate", "0.99"},
      {"faults.vm_launch_failure_rate", "1.0"},
      {"faults.shuffle_crash_rate_per_hour", "-1"},
      {"chaos.horizon_ms", "-1"},
      {"chaos.outage.windows_per_hour", "-2"},
      {"chaos.outage.mean_window_ms", "0"},
      {"chaos.outage.elastic_failure_fraction", "1.5"},
      {"chaos.storm.storms_per_hour", "-1"},
      {"chaos.storm.mean_storm_ms", "-5"},
      {"chaos.storm.reclaim_fraction_per_minute", "1.01"},
      {"chaos.brownout.windows_per_hour", "-1"},
      {"chaos.brownout.mean_window_ms", "0"},
      {"chaos.brownout.store_error_rate", "0.951"},
      {"chaos.price_shock.shocks_per_hour", "-1"},
      {"chaos.price_shock.mean_shock_ms", "0"},
      {"chaos.price_shock.price_multiplier", "0"},
      {"spot_mean_lifetime_hours", "-1"},
      {"retry_budget_ms", "-1"},
      {"breaker.failure_threshold", "-1"},
      {"breaker.open_ms", "0"},
      {"breaker.success_threshold", "0"},
  };
  for (const auto& [key, value] : kCases) {
    SCOPED_TRACE(key);
    const auto parsed = ParseScenario(std::string("name = x\n") + key +
                                      " = " + value + "\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().ToString().find(key), std::string::npos)
        << parsed.status().ToString();
  }

  // The bounds themselves are accepted.
  const auto edges = ParseScenario(
      "name = x\n"
      "faults.store_error_rate = 0.95\n"
      "chaos.storm.reclaim_fraction_per_minute = 1\n"
      "retry_budget_ms = 0\n"
      "breaker.success_threshold = 1\n");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  CostModel cost;
  const CackleEngine engine(&cost, edges.value().ToEngineOptions());
}

TEST(ScenarioTest, MissingNameOrAssignmentIsRejected) {
  const auto nameless = ParseScenario("seed = 1\n");
  ASSERT_FALSE(nameless.ok());
  EXPECT_NE(nameless.status().ToString().find("name"), std::string::npos);

  const auto bare = ParseScenario("name = x\njust some words\n");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioTest, HorizonDefaultsToRunLengthPlusDrainTail) {
  ChaosScenario with_process;
  with_process.workload.duration_ms = kMillisPerHour;
  with_process.chaos.storm.storms_per_hour = 2.0;
  // The default horizon covers arrivals plus a short drain tail; a much
  // longer horizon would dilute the per-hour window rates.
  EXPECT_EQ(with_process.ToEngineOptions().chaos.horizon_ms,
            kMillisPerHour + kMillisPerHour / 2);

  ChaosScenario no_process;
  no_process.workload.duration_ms = kMillisPerHour;
  EXPECT_EQ(no_process.ToEngineOptions().chaos.horizon_ms, 0);

  ChaosScenario explicit_horizon = with_process;
  explicit_horizon.chaos.horizon_ms = 7 * kMillisPerMinute;
  EXPECT_EQ(explicit_horizon.ToEngineOptions().chaos.horizon_ms,
            7 * kMillisPerMinute);
}

TEST(ScenarioTest, FaultFreeOptionsDisableEveryDegradationKnob) {
  auto loaded = LoadNamedScenario("full_chaos");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EngineOptions base = loaded.value().ToFaultFreeEngineOptions();
  EXPECT_FALSE(base.faults.randomized());
  EXPECT_EQ(base.faults.shuffle_crash_rate_per_hour, 0.0);
  EXPECT_EQ(base.chaos.horizon_ms, 0);
  EXPECT_EQ(base.spot_mean_lifetime_hours, 0.0);
  EXPECT_FALSE(base.admission.enabled());
  EXPECT_EQ(base.store_breaker.failure_threshold, 0);
  EXPECT_EQ(base.hedge_after_ms, 0);
  EXPECT_EQ(base.elastic_retry_budget_ms, 0);
  // The seed survives, so the baseline is the same run minus the faults.
  EXPECT_EQ(base.seed, loaded.value().seed);
}

TEST(ScenarioTest, EveryLibraryScenarioLoadsAndValidates) {
  for (const char* name :
       {"diurnal_flash_crowd", "reclamation_storm", "store_brownout",
        "price_shock", "full_chaos"}) {
    SCOPED_TRACE(name);
    const auto loaded = LoadNamedScenario(name);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().name, name);
    EXPECT_GT(loaded.value().workload.num_queries, 0);
    EXPECT_FALSE(loaded.value().description.empty());
    // Its options pass every constructor CHECK.
    CostModel cost;
    const CackleEngine engine(&cost, loaded.value().ToEngineOptions());
  }
}

// ---------------------------------------------------------------------------
// Scenario library: engine acceptance
// ---------------------------------------------------------------------------

EngineResult RunScenarioOnce(const ChaosScenario& scenario,
                             const ProfileLibrary& lib, CostModel* cost) {
  WorkloadGenerator gen(&lib);
  const auto arrivals = gen.Generate(scenario.workload);
  CackleEngine engine(cost, scenario.ToEngineOptions());
  return engine.Run(arrivals, lib);
}

// Acceptance: the reclamation-storm scenario, loaded from its file and run
// twice with the same seed, is bit-identical — including every degradation
// counter and per-query latency sample.
TEST(ChaosTest, ReclamationStormScenarioIsBitIdentical) {
  auto loaded = LoadNamedScenario("reclamation_storm");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ChaosScenario scenario = loaded.value();
  scenario.workload.num_queries = 150;  // CI-sized; fault processes intact
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;
  const EngineResult r1 = RunScenarioOnce(scenario, lib, &cost);
  const EngineResult r2 = RunScenarioOnce(scenario, lib, &cost);
  ExpectIdenticalResults(r1, r2);
  // The storm actually happened: Markov-modulated reclaims hit the fleet.
  EXPECT_GT(r1.storm_reclaims, 0);
  EXPECT_GT(r1.vms_interrupted, 0);
  // Every arrival is accounted for: completed or explicitly shed.
  EXPECT_EQ(r1.queries_completed + r1.queries_shed, 150);
}

// Acceptance: under the full-chaos storm the engine sheds and defers
// instead of queueing unboundedly, and no arrival is silently lost.
TEST(ChaosTest, FullChaosScenarioShedsInsteadOfQueueingUnboundedly) {
  auto loaded = LoadNamedScenario("full_chaos");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ChaosScenario& scenario = loaded.value();
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;
  const EngineResult r = RunScenarioOnce(scenario, lib, &cost);
  EXPECT_GT(r.queries_deferred, 0);
  EXPECT_GT(r.queries_shed, 0);
  EXPECT_GT(r.admission_queue_peak, 0);
  // Shed + completed covers every arrival; a shed query is a first-class
  // outcome, not lost work.
  EXPECT_EQ(r.queries_completed + r.queries_shed,
            scenario.workload.num_queries);
  // Only completed interactive queries contribute latency samples.
  EXPECT_EQ(static_cast<int64_t>(r.latencies_s.size() +
                                 r.batch_latencies_s.size()),
            r.queries_completed);
}

// The brownout scenario exercises the store-side tail defenses: hedged
// duplicate GETs during latency inflation and the circuit breaker under
// elevated error rates. Nothing is lost — brownouts cost time and money,
// not answers.
TEST(ChaosTest, BrownoutScenarioHedgesReadsAndTripsBreaker) {
  auto loaded = LoadNamedScenario("store_brownout");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ChaosScenario& scenario = loaded.value();
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;
  const EngineResult r = RunScenarioOnce(scenario, lib, &cost);
  EXPECT_EQ(r.queries_completed, scenario.workload.num_queries);
  EXPECT_GT(r.hedged_reads, 0);
  EXPECT_LE(r.hedged_wins, r.hedged_reads);
  EXPECT_GT(r.store_circuit_trips, 0);
  EXPECT_GT(r.store_retries, 0);
}

}  // namespace
}  // namespace cackle
