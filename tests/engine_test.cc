#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "engine/engine.h"
#include "model/analytical_model.h"
#include "model/work_delay_model.h"

namespace cackle {
namespace {

std::vector<QueryArrival> MakeWorkload(const ProfileLibrary& lib, int64_t n,
                                       SimTimeMs duration, uint64_t seed) {
  WorkloadGenerator gen(&lib);
  WorkloadOptions opts;
  opts.num_queries = n;
  opts.duration_ms = duration;
  opts.arrival_period_ms = duration / 3;
  opts.seed = seed;
  return gen.Generate(opts);
}

TEST(CackleEngineTest, AllQueriesCompleteAllTasksRunOnce) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 100, kMillisPerHour / 2, 21);
  int64_t expected_tasks = 0;
  for (const auto& qa : arrivals) {
    expected_tasks += lib.at(qa.profile_index).TotalTasks();
  }
  CostModel cost;
  EngineOptions opts;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 100);
  EXPECT_EQ(r.tasks_on_vms + r.tasks_on_elastic, expected_tasks);
  EXPECT_EQ(r.latencies_s.size(), 100u);
  EXPECT_GT(r.total_cost(), 0.0);
}

TEST(CackleEngineTest, Fixed0RunsEverythingOnElasticPool) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 40, kMillisPerHour / 4, 22);
  CostModel cost;
  EngineOptions opts;
  opts.use_dynamic = false;
  opts.fixed_target = 0;
  opts.enable_shuffle = false;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.tasks_on_vms, 0);
  EXPECT_GT(r.tasks_on_elastic, 0);
  EXPECT_DOUBLE_EQ(r.billing.CategoryDollars(CostCategory::kVm), 0.0);
  EXPECT_GT(r.billing.CategoryDollars(CostCategory::kElasticPool), 0.0);
}

TEST(CackleEngineTest, LargeFixedFleetAbsorbsMostTasks) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 60, kMillisPerHour / 2, 23);
  CostModel cost;
  EngineOptions opts;
  opts.use_dynamic = false;
  opts.fixed_target = 2000;
  opts.enable_shuffle = false;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  // After the 3-minute startup, nearly everything lands on VMs.
  EXPECT_GT(r.tasks_on_vms, 4 * r.tasks_on_elastic);
}

TEST(CackleEngineTest, LatencyUnaffectedByProvisioning) {
  // Cackle's claim: latency is stable regardless of the provisioning
  // decision, because overflow runs immediately on the elastic pool.
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 80, kMillisPerHour / 2, 24);
  CostModel cost;
  EngineOptions pure_elastic;
  pure_elastic.use_dynamic = false;
  pure_elastic.fixed_target = 0;
  EngineOptions dynamic;
  CackleEngine e1(&cost, pure_elastic);
  CackleEngine e2(&cost, dynamic);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  // Latencies differ only by elastic-pool startup jitter (sub-second per
  // stage): p90 within a second or two of each other.
  EXPECT_NEAR(r1.latencies_s.Percentile(90), r2.latencies_s.Percentile(90),
              3.0);
}

TEST(CackleEngineTest, DynamicCheaperThanPureElasticOnBusyWorkload) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 400, kMillisPerHour, 25);
  CostModel cost;
  EngineOptions pure_elastic;
  pure_elastic.use_dynamic = false;
  pure_elastic.fixed_target = 0;
  pure_elastic.enable_shuffle = false;
  EngineOptions dynamic;
  dynamic.enable_shuffle = false;
  CackleEngine e1(&cost, pure_elastic);
  CackleEngine e2(&cost, dynamic);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  EXPECT_LT(r2.compute_cost(), r1.compute_cost());
}

TEST(CackleEngineTest, SeriesRecordedAndConsistent) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 50, kMillisPerHour / 4, 26);
  CostModel cost;
  EngineOptions opts;
  opts.record_series = true;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  ASSERT_FALSE(r.demand_series.empty());
  ASSERT_EQ(r.demand_series.size(), r.target_series.size());
  ASSERT_EQ(r.demand_series.size(), r.active_vm_series.size());
  const int64_t peak_demand =
      *std::max_element(r.demand_series.begin(), r.demand_series.end());
  EXPECT_EQ(peak_demand, r.peak_concurrent_tasks);
  // Active VMs lag the target by the startup delay; they never appear
  // before 180 s.
  for (size_t s = 0; s < std::min<size_t>(179, r.active_vm_series.size());
       ++s) {
    EXPECT_EQ(r.active_vm_series[s], 0) << s;
  }
}

TEST(CackleEngineTest, ShuffleLayerUsedAndGarbageCollected) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 120, kMillisPerHour / 2, 27);
  CostModel cost;
  EngineOptions opts;  // shuffle on
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_GT(r.shuffle_written_bytes, 0);
  EXPECT_GT(r.billing.CategoryDollars(CostCategory::kShuffleNode), 0.0);
  // All intermediate state freed at the end.
  EXPECT_EQ(r.billing.CategoryDollars(CostCategory::kObjectStoreGet) > 0,
            r.shuffle_fallback_bytes > 0);
}

TEST(CackleEngineTest, ShuffleBytesConserved) {
  // Every byte a stage declares as shuffle output is written through the
  // shuffle layer exactly once.
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 70, kMillisPerHour / 4, 51);
  int64_t expected_bytes = 0;
  for (const auto& qa : arrivals) {
    expected_bytes += lib.at(qa.profile_index).TotalShuffleBytes();
  }
  CostModel cost;
  EngineOptions opts;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.shuffle_written_bytes, expected_bytes);
  EXPECT_LE(r.shuffle_fallback_bytes, r.shuffle_written_bytes);
}

TEST(CackleEngineTest, DeterministicForSeed) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 60, kMillisPerHour / 4, 28);
  CostModel cost;
  EngineOptions opts;
  CackleEngine e1(&cost, opts);
  CackleEngine e2(&cost, opts);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  EXPECT_DOUBLE_EQ(r1.total_cost(), r2.total_cost());
  EXPECT_EQ(r1.tasks_on_vms, r2.tasks_on_vms);
  EXPECT_EQ(r1.makespan_ms, r2.makespan_ms);
}

TEST(CackleEngineTest, PrimedHistoryReducesColdStartCost) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 300, kMillisPerHour / 2, 41);
  // Expected demand: the same workload shape with a different seed.
  WorkloadGenerator gen(&lib);
  WorkloadOptions expected_opts;
  expected_opts.num_queries = 300;
  expected_opts.duration_ms = kMillisPerHour / 2;
  expected_opts.arrival_period_ms = expected_opts.duration_ms / 3;
  expected_opts.seed = 42;
  const DemandCurve expected =
      DemandCurve::FromWorkload(gen.Generate(expected_opts), lib);

  CostModel cost;
  EngineOptions cold;
  cold.enable_shuffle = false;
  EngineOptions primed = cold;
  primed.primed_history = expected.tasks_per_second();
  CackleEngine e_cold(&cost, cold);
  CackleEngine e_primed(&cost, primed);
  const EngineResult r_cold = e_cold.Run(arrivals, lib);
  const EngineResult r_primed = e_primed.Run(arrivals, lib);
  EXPECT_EQ(r_primed.queries_completed, 300);
  // Priming must not hurt latency, and should not cost dramatically more
  // (typically it saves; allow slack for workload-shape mismatch).
  EXPECT_NEAR(r_primed.latencies_s.Percentile(90),
              r_cold.latencies_s.Percentile(90), 3.0);
  EXPECT_LT(r_primed.compute_cost(), 1.2 * r_cold.compute_cost());
}

TEST(CackleEngineTest, SpotInterruptionsRetryWithoutLosingWork) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 80, kMillisPerHour / 2, 31);
  CostModel cost;
  EngineOptions opts;
  opts.enable_shuffle = false;
  // A fixed fleet keeps VMs busy so interruptions actually hit running
  // tasks (the dynamic strategy would correctly stay near-pure-elastic on
  // a workload this light).
  opts.use_dynamic = false;
  opts.fixed_target = 150;
  opts.spot_mean_lifetime_hours = 0.05;  // reclaim every ~3 minutes
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 80);
  EXPECT_GT(r.tasks_on_vms, 0);
  EXPECT_GT(r.vms_interrupted, 0);
  EXPECT_GT(r.tasks_retried, 0);
  // Every task completes exactly once despite retries.
  int64_t expected_tasks = 0;
  for (const auto& qa : arrivals) {
    expected_tasks += lib.at(qa.profile_index).TotalTasks();
  }
  // Placements = original tasks + retries.
  EXPECT_EQ(r.tasks_on_vms + r.tasks_on_elastic,
            expected_tasks + r.tasks_retried);
}

TEST(CackleEngineTest, InterruptionsBarelyMoveLatency) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 100, kMillisPerHour / 2, 32);
  CostModel cost;
  EngineOptions stable;
  stable.enable_shuffle = false;
  EngineOptions flaky = stable;
  flaky.spot_mean_lifetime_hours = 0.25;
  CackleEngine e1(&cost, stable);
  CackleEngine e2(&cost, flaky);
  const EngineResult r1 = e1.Run(arrivals, lib);
  const EngineResult r2 = e2.Run(arrivals, lib);
  // The elastic pool absorbs reclaimed work: p90 within a few seconds.
  EXPECT_LT(r2.latencies_s.Percentile(90),
            r1.latencies_s.Percentile(90) + 5.0);
}

TEST(CackleEngineTest, BatchQueriesWaitForVmsAndSaveCost) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions wopts;
  wopts.num_queries = 200;
  wopts.duration_ms = kMillisPerHour / 2;
  wopts.arrival_period_ms = wopts.duration_ms / 3;
  wopts.batch_fraction = 0.4;
  wopts.seed = 33;
  const auto arrivals = gen.Generate(wopts);
  int64_t batch_count = 0;
  for (const auto& a : arrivals) batch_count += a.batch;
  ASSERT_GT(batch_count, 40);
  ASSERT_LT(batch_count, 160);

  CostModel cost;
  EngineOptions opts;
  opts.enable_shuffle = false;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  EXPECT_EQ(r.queries_completed, 200);
  EXPECT_EQ(static_cast<int64_t>(r.batch_latencies_s.size()), batch_count);
  EXPECT_EQ(static_cast<int64_t>(r.latencies_s.size()),
            200 - batch_count);
  EXPECT_GT(r.batch_tasks_delayed, 0);
  // Batch latency is worse than interactive latency (it waited).
  EXPECT_GT(r.batch_latencies_s.Percentile(90),
            r.latencies_s.Percentile(90));

  // The same workload with everything interactive costs more compute.
  auto all_interactive = arrivals;
  for (auto& a : all_interactive) a.batch = false;
  CackleEngine baseline(&cost, opts);
  const EngineResult rb = baseline.Run(all_interactive, lib);
  EXPECT_LT(r.compute_cost(), rb.compute_cost());
}

TEST(CackleEngineTest, OverdueBatchTasksEscalateToElasticPool) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  wopts.duration_ms = kMillisPerMinute;
  wopts.batch_fraction = 1.0;  // everything batch
  wopts.seed = 34;
  const auto arrivals = gen.Generate(wopts);
  CostModel cost;
  EngineOptions opts;
  opts.enable_shuffle = false;
  opts.use_dynamic = false;
  opts.fixed_target = 0;  // no VMs, ever
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);
  // With no provisioned capacity, the SLA forces every task to the pool.
  EXPECT_EQ(r.queries_completed, 10);
  EXPECT_GT(r.batch_tasks_escalated, 0);
  EXPECT_EQ(r.tasks_on_vms, 0);
}

TEST(ModelValidationTest, EngineCostTracksAnalyticalModel) {
  // Figure 13's validation: replaying the engine-produced demand history
  // through the analytical model must land near the engine-measured compute
  // cost (the paper reports a 12% gap for its implementation).
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals = MakeWorkload(lib, 300, kMillisPerHour, 29);
  CostModel cost;
  EngineOptions opts;
  opts.enable_shuffle = false;
  opts.record_series = true;
  CackleEngine engine(&cost, opts);
  const EngineResult engine_result = engine.Run(arrivals, lib);

  DemandCurve demand = DemandCurve::FromWorkload(arrivals, lib);
  AnalyticalModel model(&cost);
  DynamicStrategy strategy(&cost);
  const ModelResult model_result = model.Run(&strategy, demand);

  const double engine_cost = engine_result.compute_cost();
  const double model_cost = model_result.compute_cost();
  EXPECT_GT(model_cost, 0.0);
  EXPECT_LT(std::abs(engine_cost - model_cost) / model_cost, 0.35)
      << "engine=" << engine_cost << " model=" << model_cost;
}

}  // namespace
}  // namespace cackle
