#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/stats.h"
#include "workload/demand.h"
#include "workload/profile_library.h"
#include "workload/query_profile.h"
#include "workload/trace_generator.h"
#include "workload/trace_io.h"
#include "workload/workload_generator.h"

namespace cackle {
namespace {

QueryProfile MakeDiamondProfile() {
  // 0 -> {1, 2} -> 3 (diamond).
  QueryProfile p;
  p.name = "diamond";
  p.query_id = 99;
  p.scale_factor = 1;
  p.stages = {
      {0, {}, 4, 2000, {}, 1000, 8, 32},
      {1, {0}, 2, 3000, {}, 500, 4, 8},
      {2, {0}, 8, 1000, {}, 0, 0, 0},
      {3, {1, 2}, 1, 1000, {}, 0, 0, 0},
  };
  return p;
}

TEST(QueryProfileTest, DerivedMetrics) {
  QueryProfile p = MakeDiamondProfile();
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.TotalTasks(), 15);
  EXPECT_EQ(p.TotalTaskMs(), 4 * 2000 + 2 * 3000 + 8 * 1000 + 1000);
  EXPECT_EQ(p.TotalShuffleBytes(), 1500);
  EXPECT_EQ(p.TotalObjectStorePuts(), 12);
  EXPECT_EQ(p.TotalObjectStoreGets(), 40);
}

TEST(QueryProfileTest, StageTimingRespectsDependencies) {
  QueryProfile p = MakeDiamondProfile();
  const auto starts = p.StageStartTimes();
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 2000);
  EXPECT_EQ(starts[2], 2000);
  // Stage 3 waits for the slower of stages 1 (ends 5000) and 2 (ends 3000).
  EXPECT_EQ(starts[3], 5000);
  EXPECT_EQ(p.CriticalPathMs(), 6000);
}

TEST(QueryProfileTest, PerTaskDurationsOverride) {
  QueryProfile p = MakeDiamondProfile();
  p.stages[0].task_durations_ms = {1000, 2000, 3000, 9000};
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.stages[0].MaxTaskDuration(), 9000);
  EXPECT_EQ(p.stages[0].TotalTaskMs(), 15000);
  EXPECT_EQ(p.StageStartTimes()[1], 9000);
}

TEST(QueryProfileTest, ValidationCatchesBadDags) {
  QueryProfile p = MakeDiamondProfile();
  p.stages[1].dependencies = {3};  // forward reference
  EXPECT_FALSE(p.Validate().ok());
  p = MakeDiamondProfile();
  p.stages[2].num_tasks = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = MakeDiamondProfile();
  p.stages[0].stage_id = 7;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(QueryProfileTest, SerializationRoundTrips) {
  QueryProfile p = MakeDiamondProfile();
  p.stages[1].task_durations_ms = {2500, 3500};
  const std::string text = SerializeProfiles({p});
  auto parsed = ParseProfiles(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  const QueryProfile& q = (*parsed)[0];
  EXPECT_EQ(q.name, "diamond");
  ASSERT_EQ(q.stages.size(), 4u);
  EXPECT_EQ(q.stages[1].task_durations_ms,
            (std::vector<SimTimeMs>{2500, 3500}));
  EXPECT_EQ(q.stages[0].object_store_gets, 32);
  EXPECT_EQ(q.stages[3].dependencies, (std::vector<int>{1, 2}));
}

TEST(QueryProfileTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseProfiles("bogus line").ok());
  EXPECT_FALSE(ParseProfiles("stage 0 tasks 1").ok());
}

TEST(ProfileLibraryTest, BuiltinCoversAllQueriesAndScales) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  EXPECT_EQ(lib.size(), 25u * 3u);
  for (int q = 1; q <= 25; ++q) {
    for (int sf : ProfileLibrary::BuiltinScaleFactors()) {
      const QueryProfile& p = lib.Get(q, sf);
      EXPECT_TRUE(p.Validate().ok()) << p.name;
      EXPECT_GE(p.stages.size(), 2u) << p.name;
      // Every non-final stage of these plans shuffles something.
      EXPECT_GT(p.TotalShuffleBytes(), 0) << p.name;
    }
  }
}

TEST(ProfileLibraryTest, ScaleFactorScalesTasksAndBytes) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const QueryProfile& sf10 = lib.Get(3, 10);
  const QueryProfile& sf100 = lib.Get(3, 100);
  EXPECT_LT(sf10.TotalTasks(), sf100.TotalTasks());
  EXPECT_LT(sf10.TotalShuffleBytes(), sf100.TotalShuffleBytes());
  // Durations stay constant: tasks are sized for fixed containers.
  EXPECT_EQ(sf10.stages[0].task_duration_ms, sf100.stages[0].task_duration_ms);
}

TEST(ProfileLibraryTest, FindByName) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  EXPECT_NE(lib.FindByName("tpch_q06_sf100"), nullptr);
  EXPECT_EQ(lib.FindByName("nonexistent"), nullptr);
}

TEST(WorkloadGeneratorTest, GeneratesRequestedCountSorted) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions opts;
  opts.num_queries = 1000;
  opts.duration_ms = kMillisPerHour;
  const auto arrivals = gen.Generate(opts);
  ASSERT_EQ(arrivals.size(), 1000u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].arrival_ms, arrivals[i].arrival_ms);
  }
  for (const auto& a : arrivals) {
    EXPECT_GE(a.arrival_ms, 0);
    EXPECT_LT(a.arrival_ms, opts.duration_ms);
    EXPECT_LT(a.profile_index, lib.size());
  }
}

TEST(WorkloadGeneratorTest, DeterministicInSeed) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions opts;
  opts.num_queries = 500;
  const auto a = gen.Generate(opts);
  const auto b = gen.Generate(opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].profile_index, b[i].profile_index);
  }
  opts.seed = 43;
  const auto c = gen.Generate(opts);
  int64_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff += (a[i].arrival_ms != c[i].arrival_ms);
  }
  EXPECT_GT(diff, 400);
}

TEST(WorkloadGeneratorDeathTest, RejectsOptionsThatCannotGenerate) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions negative_count;
  negative_count.num_queries = -5;
  EXPECT_DEATH(gen.Generate(negative_count), "num_queries");
  WorkloadOptions no_duration;
  no_duration.num_queries = 10;
  no_duration.duration_ms = 0;
  EXPECT_DEATH(gen.Generate(no_duration), "duration_ms");
  // Would loop forever: the sine density is NaN at a zero period.
  WorkloadOptions no_period;
  no_period.num_queries = 10;
  no_period.arrival_period_ms = 0;
  no_period.baseline_load = 0.5;
  EXPECT_DEATH(gen.Generate(no_period), "arrival_period_ms");
  // A period is not needed when every arrival is uniform.
  no_period.baseline_load = 1.0;
  EXPECT_EQ(gen.Generate(no_period).size(), 10u);
}

TEST(WorkloadGeneratorTest, SineDistributionPeaksAndTroughs) {
  // With zero baseline load the arrival density should follow
  // 1 + sin(2*pi*t/P): the quarter-period around the peak (centred P/4)
  // must receive several times the arrivals of the trough (centred 3P/4).
  WorkloadOptions opts;
  opts.num_queries = 0;
  opts.duration_ms = 4 * kMillisPerHour;
  opts.arrival_period_ms = 4 * kMillisPerHour;
  opts.baseline_load = 0.0;
  Rng rng(17);
  int64_t peak = 0;
  int64_t trough = 0;
  for (int i = 0; i < 200000; ++i) {
    const SimTimeMs t = SampleArrivalTime(opts, &rng);
    const double phase = static_cast<double>(t) /
                         static_cast<double>(opts.arrival_period_ms);
    if (phase > 0.125 && phase < 0.375) ++peak;
    if (phase > 0.625 && phase < 0.875) ++trough;
  }
  EXPECT_GT(peak, 5 * trough);
}

TEST(WorkloadGeneratorTest, FullBaselineIsUniform) {
  WorkloadOptions opts;
  opts.duration_ms = kMillisPerHour;
  opts.baseline_load = 1.0;
  Rng rng(18);
  int64_t first_half = 0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (SampleArrivalTime(opts, &rng) < opts.duration_ms / 2) ++first_half;
  }
  EXPECT_NEAR(static_cast<double>(first_half) / kSamples, 0.5, 0.01);
}

TEST(DemandCurveTest, AddTasksRoundsUpToSeconds) {
  DemandCurve curve(10);
  curve.AddTasks(500, 1, 3);  // 1 ms task still occupies one full second
  EXPECT_EQ(curve.TasksAt(0), 3);
  EXPECT_EQ(curve.TasksAt(1), 0);
  curve.AddTasks(2'000, 1'500, 2);  // 1.5 s rounds to 2 s
  EXPECT_EQ(curve.TasksAt(2), 2);
  EXPECT_EQ(curve.TasksAt(3), 2);
  EXPECT_EQ(curve.TasksAt(4), 0);
}

TEST(DemandCurveTest, FromWorkloadMatchesManualSchedule) {
  ProfileLibrary lib;
  lib.Add(MakeDiamondProfile());
  std::vector<QueryArrival> arrivals = {{0, 0}};
  DemandCurve curve = DemandCurve::FromWorkload(arrivals, lib);
  // Stage 0: 4 tasks over [0,2s); stage 1: 2 tasks [2,5); stage 2: 8 tasks
  // [2,3); stage 3: 1 task [5,6).
  EXPECT_EQ(curve.TasksAt(0), 4);
  EXPECT_EQ(curve.TasksAt(1), 4);
  EXPECT_EQ(curve.TasksAt(2), 10);
  EXPECT_EQ(curve.TasksAt(3), 2);
  EXPECT_EQ(curve.TasksAt(4), 2);
  EXPECT_EQ(curve.TasksAt(5), 1);
  EXPECT_EQ(curve.MaxTasks(), 10);
  EXPECT_EQ(curve.TotalTaskSeconds(), 4 * 2 + 2 * 3 + 8 * 1 + 1);
  // Shuffle state: stage 0 writes 1000B at t=2s, resident until query end
  // (6s); stage 1 writes 500B at 5s.
  EXPECT_EQ(curve.ShuffleBytesAt(2), 1000);
  EXPECT_EQ(curve.ShuffleBytesAt(5), 1500);
  EXPECT_EQ(curve.ShuffleBytesAt(6), 0);
}

TEST(DemandCurveTest, OverlappingQueriesSum) {
  ProfileLibrary lib;
  lib.Add(MakeDiamondProfile());
  std::vector<QueryArrival> arrivals = {{0, 0}, {0, 0}, {1'000, 0}};
  DemandCurve curve = DemandCurve::FromWorkload(arrivals, lib);
  EXPECT_EQ(curve.TasksAt(0), 8);
  EXPECT_EQ(curve.TasksAt(1), 8 + 4);
  EXPECT_EQ(curve.MaxTasks(), 10 + 10 + 4);  // t=2: two at stage peak + one
}

TEST(TraceGeneratorTest, StartupTraceShapes) {
  const auto arrivals = TraceGenerator::StartupArrivals(1, 168);
  EXPECT_GT(arrivals.size(), 3000u);
  EXPECT_LT(arrivals.size(), 30000u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  const auto concurrency = TraceGenerator::StartupConcurrency(1, 168);
  EXPECT_EQ(concurrency.size(), 168u * 3600u);
  const int64_t peak =
      *std::max_element(concurrency.begin(), concurrency.end());
  EXPECT_GE(peak, 3);
}

TEST(TraceGeneratorTest, AlibabaDailyPeriodicity) {
  const auto cpus = TraceGenerator::AlibabaCpus(2, 48, 1000);
  ASSERT_EQ(cpus.size(), 48u * 3600u);
  // Demand near the daily peak (22:00) should exceed the early-morning
  // trough (10:00) by a wide margin on both days.
  for (int day = 0; day < 2; ++day) {
    const int64_t peak = cpus[static_cast<size_t>((day * 24 + 22) * 3600)];
    const int64_t trough = cpus[static_cast<size_t>((day * 24 + 10) * 3600)];
    EXPECT_GT(peak, 2 * trough) << "day " << day;
  }
}

TEST(TraceGeneratorTest, AzureWeekendsQuieter) {
  const auto nodes = TraceGenerator::AzureNodes(3, 336);
  ASSERT_EQ(nodes.size(), 336u * 3600u);
  auto mean_day = [&](int day) {
    double sum = 0;
    for (int s = 0; s < 86400; ++s) {
      sum += static_cast<double>(nodes[static_cast<size_t>(day * 86400 + s)]);
    }
    return sum / 86400.0;
  };
  // Day 0 is a Monday; days 5-6 are the weekend.
  const double weekday = (mean_day(0) + mean_day(1) + mean_day(2)) / 3.0;
  const double weekend = (mean_day(5) + mean_day(6)) / 2.0;
  EXPECT_GT(weekday, 1.3 * weekend);
}

TEST(TraceIoTest, ParsesBasicCsv) {
  auto series = ParseDemandCsv("second,demand\n0,5\n1,7\n2,3\n");
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_EQ(*series, (std::vector<int64_t>{5, 7, 3}));
}

TEST(TraceIoTest, FillsGapsWithPreviousValue) {
  auto series = ParseDemandCsv("0,10\n5,20\n");
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(*series, (std::vector<int64_t>{10, 10, 10, 10, 10, 20}));
  // Seconds before the first sample are zero.
  auto late = ParseDemandCsv("2,10\n4,20\n");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(*late, (std::vector<int64_t>{0, 0, 10, 10, 20}));
}

TEST(TraceIoTest, HandlesUnorderedAndCrlf) {
  auto series = ParseDemandCsv("ts,load\r\n2,3\r\n0,1\r\n1,2\r\n");
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(*series, (std::vector<int64_t>{1, 2, 3}));
}

TEST(TraceIoTest, RejectsBadInput) {
  EXPECT_FALSE(ParseDemandCsv("").ok());
  EXPECT_FALSE(ParseDemandCsv("justonefield\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,-5\n").ok());
  EXPECT_FALSE(ParseDemandCsv("-1,5\n").ok());
  // Absurd horizon (seconds column probably in milliseconds).
  EXPECT_FALSE(ParseDemandCsv("99999999999,1\n").ok());
  EXPECT_FALSE(ParseDemandCsv("34560000,1\n").ok());  // day 400 exactly
  // The largest second: the bound is checked before adding one to it.
  const auto huge = ParseDemandCsv("9223372036854775807,5\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().ToString().find("400 days"), std::string::npos);
}

TEST(TraceIoTest, RejectsNonNumericFields) {
  EXPECT_FALSE(ParseDemandCsv("0,5\n1,abc\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,5\nabc,7\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,5\n1,\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,5\n,7\n").ok());
}

TEST(TraceIoTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseDemandCsv("0,5\n1,7xyz\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,5\n1x,7\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,5\n1,7,9\n").ok());
  // Blanks around a field are not garbage.
  auto spaced = ParseDemandCsv("0, 5\n 1 ,\t7\n");
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  EXPECT_EQ(*spaced, (std::vector<int64_t>{5, 7}));
}

TEST(TraceIoTest, RejectsDuplicateSeconds) {
  const auto dup = ParseDemandCsv("0,5\n1,7\n0,9\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().ToString().find("second 0"), std::string::npos);
  EXPECT_FALSE(ParseDemandCsv("3,1\n3,1\n").ok());
}

TEST(TraceIoTest, RejectsDemandThatWouldOverflowAnHourSum) {
  const int64_t max_demand = std::numeric_limits<int64_t>::max() / 3600;
  auto at_limit = ParseDemandCsv("0," + std::to_string(max_demand) + "\n");
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(*at_limit, (std::vector<int64_t>{max_demand}));
  EXPECT_FALSE(
      ParseDemandCsv("0," + std::to_string(max_demand + 1) + "\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,9223372036854775807\n").ok());
  EXPECT_FALSE(ParseDemandCsv("0,99999999999999999999\n").ok());
}

TEST(TraceIoTest, RoundTripsThroughFormat) {
  const std::vector<int64_t> original = {0, 3, 7, 7, 2, 0, 9};
  auto parsed = ParseDemandCsv(FormatDemandCsv(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, original);
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = "/tmp/cackle_trace_io_test.csv";
  const std::vector<int64_t> original = {5, 4, 3, 2, 1};
  ASSERT_TRUE(SaveDemandCsv(path, original).ok());
  auto loaded = LoadDemandCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, original);
  EXPECT_FALSE(LoadDemandCsv("/nonexistent/dir/trace.csv").ok());
}

TEST(TraceGeneratorTest, TracesContainSpikes) {
  // Spikes double demand within minutes: the max over a window should be
  // far above the window median.
  const auto nodes = TraceGenerator::AzureNodes(4, 72);
  int64_t max = 0;
  std::vector<double> vals;
  for (int64_t v : nodes) {
    max = std::max(max, v);
    vals.push_back(static_cast<double>(v));
  }
  const double median = Percentile(vals, 50);
  EXPECT_GT(static_cast<double>(max), 2.5 * median);
}

}  // namespace
}  // namespace cackle
