// Microbenchmarks of the strategy stack's hot paths (google-benchmark):
// sorted sliding-window appends, the full expert family's
// per-second evaluation on a random walk and on a trace, the meta-strategy's
// construction, multiplicative-weights updates and draws, the predictive
// baseline's series, allocation-model stepping, and oracle computation.

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.h"
#include "strategy/allocation_model.h"
#include "strategy/dynamic_strategy.h"
#include "strategy/multiplicative_weights.h"
#include "strategy/oracle.h"
#include "strategy/strategy.h"
#include "strategy/workload_history.h"
#include "workload/trace_generator.h"

namespace cackle {
namespace {

void BM_WorkloadHistoryAppend(benchmark::State& state) {
  WorkloadHistory history;
  // Sorted windows are kept from their first request on, as the dynamic
  // strategy requests all six every second.
  for (int64_t lookback : history.lookbacks()) history.SortedWindow(lookback);
  Rng rng(3);
  int64_t demand = 500;
  for (auto _ : state) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    history.Append(demand);
  }
}
BENCHMARK(BM_WorkloadHistoryAppend);

void BM_DynamicStrategySecond(benchmark::State& state) {
  CostModel cost;
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  Rng rng(4);
  int64_t demand = 500;
  // Warm the history so all lookbacks are populated.
  for (int i = 0; i < 4000; ++i) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    history.Append(demand);
    dynamic.Target(history);
  }
  for (auto _ : state) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    history.Append(demand);
    benchmark::DoNotOptimize(dynamic.Target(history));
  }
}
BENCHMARK(BM_DynamicStrategySecond);

// The ±20 random walk above moves most experts' targets every second; on
// the Fig 10 traces a target changes on a few percent of expert-seconds.
// This replays the second hour of a seeded Alibaba trace, one second per
// iteration and cyclically, after warming the strategy on the first hour.
void BM_DynamicStrategyTraceSecond(benchmark::State& state) {
  CostModel cost;
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  const std::vector<int64_t> trace =
      TraceGenerator::AlibabaCpus(/*seed=*/4, /*hours=*/2);
  const size_t hour = trace.size() / 2;
  for (size_t s = 0; s < hour; ++s) {
    history.Append(trace[s]);
    dynamic.Target(history);
  }
  size_t s = 0;
  for (auto _ : state) {
    history.Append(trace[hour + s]);
    benchmark::DoNotOptimize(dynamic.Target(history));
    s = s + 1 == hour ? 0 : s + 1;
  }
}
BENCHMARK(BM_DynamicStrategyTraceSecond);

// Engine set-up constructs the meta-strategy with its 666 expert models.
void BM_DynamicStrategyConstruct(benchmark::State& state) {
  CostModel cost;
  for (auto _ : state) {
    DynamicStrategy dynamic(&cost);
    benchmark::DoNotOptimize(dynamic.num_experts());
  }
}
BENCHMARK(BM_DynamicStrategyConstruct);

void BM_MultiplicativeWeightsUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MultiplicativeWeights mw(n, 0.25);
  Rng rng(5);
  std::vector<double> penalties(n);
  for (auto _ : state) {
    for (double& p : penalties) p = rng.NextDouble();
    mw.Update(penalties);
  }
}
BENCHMARK(BM_MultiplicativeWeightsUpdate)->Arg(64)->Arg(666);

// One Fig 10 decision draws the played expert from 666 weights.
void BM_MultiplicativeWeightsSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MultiplicativeWeights mw(n, 0.25, 1e-6);
  Rng rng(5);
  std::vector<double> penalties(n);
  for (int round = 0; round < 100; ++round) {
    for (double& p : penalties) p = rng.NextDouble(0.0, 0.2);
    mw.Update(penalties);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mw.Sample(&rng));
  }
}
BENCHMARK(BM_MultiplicativeWeightsSample)->Arg(666);

// The predictive baseline over a 24 h Azure trace, as EvaluateStrategy
// replays it in the Fig 10 line-up; one iteration is the whole day.
void BM_PredictiveTargetSeries(benchmark::State& state) {
  CostModel cost;
  std::vector<int64_t> demand =
      TraceGenerator::AzureNodes(/*seed=*/4, /*hours=*/24);
  for (int64_t& nodes : demand) nodes *= TraceGenerator::kTasksPerAzureNode;
  PredictiveStrategy predictive(cost.vm_startup_ms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictive.TargetSeries(demand));
  }
}
BENCHMARK(BM_PredictiveTargetSeries)->Unit(benchmark::kMillisecond);

void BM_AllocationModelStep(benchmark::State& state) {
  CostModel cost;
  AllocationModel model(&cost);
  Rng rng(6);
  int64_t demand = 500;
  int64_t target = 400;
  for (auto _ : state) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    if ((model.now_s() & 7) == 0) target = rng.NextInt(0, 1000);
    benchmark::DoNotOptimize(model.Step(target, demand));
  }
}
BENCHMARK(BM_AllocationModelStep);

void BM_OracleOneHour(benchmark::State& state) {
  CostModel cost;
  Rng rng(7);
  std::vector<int64_t> demand(3600);
  int64_t d = 500;
  for (auto& v : demand) {
    d = std::max<int64_t>(0, d + rng.NextInt(-30, 30));
    v = d;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeOracleCost(demand, cost));
  }
}
BENCHMARK(BM_OracleOneHour);

}  // namespace
}  // namespace cackle

BENCHMARK_MAIN();
