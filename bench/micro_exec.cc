// Microbenchmarks of the executor's operators (google-benchmark): scans
// with predicates, hash joins, aggregations, partitioning, and a full
// TPC-H query.

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>

#include "exec/datagen.h"
#include "exec/expr.h"
#include "exec/flat_hash.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "exec/tpch_queries.h"

namespace cackle::exec {
namespace {

const Catalog& BenchCatalog() {
  static const Catalog* cat = new Catalog(GenerateTpch(0.01));
  return *cat;
}

void BM_FilterLineitem(benchmark::State& state) {
  const Catalog& cat = BenchCatalog();
  const ExprPtr pred = And(Ge(Col("l_discount"), Lit(0.05)),
                           Le(Col("l_discount"), Lit(0.07)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Filter(cat.lineitem, pred));
  }
  state.SetItemsProcessed(state.iterations() * cat.lineitem.num_rows());
}
BENCHMARK(BM_FilterLineitem);

void BM_HashJoinOrdersLineitem(benchmark::State& state) {
  const Catalog& cat = BenchCatalog();
  const Table orders = SelectColumns(cat.orders, {"o_orderkey", "o_custkey"});
  const Table line = SelectColumns(cat.lineitem, {"l_orderkey", "l_quantity"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HashJoin(line, {"l_orderkey"}, orders, {"o_orderkey"}));
  }
  state.SetItemsProcessed(state.iterations() * line.num_rows());
}
BENCHMARK(BM_HashJoinOrdersLineitem);

void BM_HashAggregateLineitem(benchmark::State& state) {
  const Catalog& cat = BenchCatalog();
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashAggregate(
        cat.lineitem, {"l_returnflag", "l_linestatus"},
        {{AggOp::kSum, Col("l_quantity"), "sum_qty"},
         {AggOp::kCount, nullptr, "cnt"}}));
  }
  state.SetItemsProcessed(state.iterations() * cat.lineitem.num_rows());
}
BENCHMARK(BM_HashAggregateLineitem);

void BM_FilterDictStringPredicate(benchmark::State& state) {
  // String equality over a dictionary-encoded column: the predicate is
  // evaluated once per dictionary entry, then applied per row via codes.
  const Catalog& cat = BenchCatalog();
  const ExprPtr pred = Eq(Col("l_returnflag"), Lit(std::string("R")));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Filter(cat.lineitem, pred));
  }
  state.SetItemsProcessed(state.iterations() * cat.lineitem.num_rows());
}
BENCHMARK(BM_FilterDictStringPredicate);

void BM_FlatMapBuildProbe(benchmark::State& state) {
  // The flat open-addressing table in isolation: build 64k keys, probe 256k.
  std::vector<uint64_t> keys;
  keys.reserve(1 << 16);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < (1 << 16); ++i) {
    x = Mix64(x + 0xbf58476d1ce4e5b9ULL);
    keys.push_back(x);
  }
  for (auto _ : state) {
    FlatMap64 map(static_cast<int64_t>(keys.size()));
    bool inserted = false;
    for (size_t i = 0; i < keys.size(); ++i) {
      map.FindOrInsert(keys[i], static_cast<int64_t>(i), &inserted);
    }
    int64_t hits = 0;
    for (int rep = 0; rep < 4; ++rep) {
      for (uint64_t k : keys) hits += map.Find(k) >= 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()) * 5);
}
BENCHMARK(BM_FlatMapBuildProbe);

void BM_GatherRowsLineitem(benchmark::State& state) {
  // Bulk materialization kernel: copy every other lineitem row.
  const Catalog& cat = BenchCatalog();
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(cat.lineitem.num_rows() / 2));
  for (int64_t r = 0; r < cat.lineitem.num_rows(); r += 2) rows.push_back(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cat.lineitem.GatherRows(rows));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_GatherRowsLineitem);

void BM_DictEncodeShipmode(benchmark::State& state) {
  // Dictionary construction over a low-cardinality string column.
  const Catalog& cat = BenchCatalog();
  const int col = cat.lineitem.ColumnIndex("l_shipmode");
  const Column& src = cat.lineitem.column(col);
  Column plain(DataType::kString);
  for (int64_t r = 0; r < src.size(); ++r) plain.AppendString(src.str(r));
  for (auto _ : state) {
    Column copy = plain;
    benchmark::DoNotOptimize(copy.DictEncode());
  }
  state.SetItemsProcessed(state.iterations() * cat.lineitem.num_rows());
}
BENCHMARK(BM_DictEncodeShipmode);

void BM_PartitionByHash(benchmark::State& state) {
  const Catalog& cat = BenchCatalog();
  const Table line = SelectColumns(cat.lineitem, {"l_orderkey", "l_quantity"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionByHash(line, {"l_orderkey"}, 8));
  }
  state.SetItemsProcessed(state.iterations() * line.num_rows());
}
BENCHMARK(BM_PartitionByHash);

void BM_TpchQuery(benchmark::State& state) {
  const Catalog& cat = BenchCatalog();
  const int query = static_cast<int>(state.range(0));
  PlanExecutor executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.Execute(BuildTpchPlan(query, cat, PlanConfig{4})));
  }
}
BENCHMARK(BM_TpchQuery)->Arg(1)->Arg(3)->Arg(6)->Arg(9)->Arg(18)->Arg(21);

// ---------------------------------------------------------------------------
// End-to-end multi-stage plan execution: the DAG-pipelined persistent
// work-stealing pool vs the previous per-stage thread-spawn design. The plan
// is wide and deep with deliberately small tasks, so scheduling overhead —
// not operator work — dominates, which is exactly the regime where spawning
// fresh threads for every stage hurts. Both spread work over threads, so
// both report wall-clock time (UseRealTime).
// ---------------------------------------------------------------------------

/// Replica of the pre-pool executor: fresh std::threads per stage pulling
/// task indices from a shared counter, then a serial shuffle. Kept here as
/// the benchmark baseline the pool is measured against.
Table ExecuteSpawnPerStage(const StagePlan& plan, int num_threads) {
  std::vector<StageOutput> outputs(plan.stages.size());
  for (size_t i = 0; i < plan.stages.size(); ++i) {
    const PlanStage& stage = plan.stages[i];
    std::vector<Table> task_outputs(static_cast<size_t>(stage.num_tasks));
    auto run_one_task = [&](int t) {
      TaskInput input;
      input.tables.reserve(stage.deps.size());
      for (size_t d = 0; d < stage.deps.size(); ++d) {
        const StageOutput& up = outputs[static_cast<size_t>(stage.deps[d])];
        const size_t part = stage.broadcast[d] ? 0 : static_cast<size_t>(t);
        input.tables.push_back(&up.partitions[part]);
      }
      task_outputs[static_cast<size_t>(t)] = stage.run(t, input);
    };
    if (num_threads <= 1 || stage.num_tasks == 1) {
      for (int t = 0; t < stage.num_tasks; ++t) run_one_task(t);
    } else {
      std::atomic<int> next_task{0};
      const int workers = std::min(num_threads, stage.num_tasks);
      std::vector<std::thread> pool;
      pool.reserve(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
          for (;;) {
            const int t = next_task.fetch_add(1);
            if (t >= stage.num_tasks) break;
            run_one_task(t);
          }
        });
      }
      for (std::thread& worker : pool) worker.join();
    }
    StageOutput& out = outputs[i];
    if (stage.output_partitions == 1) {
      out.partitions.push_back(Concat(task_outputs));
    } else {
      std::vector<std::vector<Table>> per_partition(
          static_cast<size_t>(stage.output_partitions));
      for (const Table& to : task_outputs) {
        std::vector<Table> parts =
            PartitionByHash(to, stage.output_keys, stage.output_partitions);
        for (size_t p = 0; p < parts.size(); ++p) {
          per_partition[p].push_back(std::move(parts[p]));
        }
      }
      for (auto& group : per_partition) {
        out.partitions.push_back(Concat(group));
      }
    }
  }
  return std::move(outputs.back().partitions[0]);
}

const Table& BenchPlanBase() {
  static const Table* base = [] {
    Table* t = new Table({{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
    uint64_t x = 0x243f6a8885a308d3ULL;
    for (int64_t i = 0; i < 2000; ++i) {
      x = Mix64(x + 0x9e3779b97f4a7c15ULL);
      t->column(0).AppendInt(static_cast<int64_t>(x % 64));
      t->column(1).AppendDouble(static_cast<double>(x % 10007) / 97.0);
    }
    t->FinishBulkAppend();
    return t;
  }();
  return *base;
}

/// `width` independent chains of `depth` small aggregate stages feeding one
/// final combiner: width*depth + 1 stages, each inner stage `tasks`-way.
StagePlan MakeBenchPlan(int width, int depth, int tasks) {
  const Table& base = BenchPlanBase();
  StagePlan plan;
  plan.name = "bench_multistage";
  std::vector<int> chain_ends;
  for (int c = 0; c < width; ++c) {
    int prev = -1;
    for (int l = 0; l < depth; ++l) {
      PlanStage stage;
      // Append form: GCC 12 -O3 -Wrestrict false-positives on the
      // `"literal" + std::to_string(...)` operator+ chain.
      stage.label = "c";
      stage.label += std::to_string(c);
      stage.label += "_l";
      stage.label += std::to_string(l);
      stage.num_tasks = tasks;
      const bool last_in_chain = (l + 1 == depth);
      stage.output_keys = last_in_chain ? std::vector<std::string>{}
                                        : std::vector<std::string>{"k"};
      stage.output_partitions = last_in_chain ? 1 : tasks;
      if (l == 0) {
        stage.run = [&base, tasks](int t, const TaskInput&) {
          const Table slice =
              base.Slice(base.num_rows() * t / tasks,
                         base.num_rows() * (t + 1) / tasks);
          return HashAggregate(slice, {"k"}, {{AggOp::kSum, Col("v"), "v"}});
        };
      } else {
        stage.deps = {prev};
        stage.broadcast = {false};
        stage.run = [](int, const TaskInput& in) {
          return HashAggregate(*in.tables[0], {"k"},
                               {{AggOp::kSum, Col("v"), "v"}});
        };
      }
      prev = static_cast<int>(plan.stages.size());
      plan.stages.push_back(std::move(stage));
    }
    chain_ends.push_back(prev);
  }
  PlanStage combine;
  combine.label = "combine";
  combine.deps = chain_ends;
  combine.broadcast.assign(chain_ends.size(), true);
  combine.num_tasks = 1;
  combine.output_partitions = 1;
  combine.run = [](int, const TaskInput& in) {
    std::vector<Table> all;
    all.reserve(in.tables.size());
    for (const Table* t : in.tables) all.push_back(*t);
    return HashAggregate(Concat(all), {"k"},
                         {{AggOp::kSum, Col("v"), "total"}});
  };
  plan.stages.push_back(std::move(combine));
  return plan;
}

void BM_MultiStagePlanSpawn(benchmark::State& state) {
  const StagePlan plan = MakeBenchPlan(4, 6, 4);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteSpawnPerStage(plan, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.stages.size()));
}
BENCHMARK(BM_MultiStagePlanSpawn)->Arg(4)->UseRealTime();

void BM_MultiStagePlanPipelined(benchmark::State& state) {
  // Full DAG pipelining: independent chains overlap, shuffle steps run as
  // pool tasks too.
  const StagePlan plan = MakeBenchPlan(4, 6, 4);
  PlanExecutor executor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Execute(plan));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plan.stages.size()));
}
BENCHMARK(BM_MultiStagePlanPipelined)->Arg(4)->UseRealTime();

void BM_GenerateTpch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateTpch(0.002));
  }
}
BENCHMARK(BM_GenerateTpch);

}  // namespace
}  // namespace cackle::exec

#ifndef CACKLE_BENCH_CXX_FLAGS
#define CACKLE_BENCH_CXX_FLAGS "(unknown)"
#endif

int main(int argc, char** argv) {
  // Surface the execution environment in the JSON context: the committed
  // artifact must say on its face whether parallel-variant numbers came
  // from a 1-core CI runner (determinism coverage only) or a real machine.
  benchmark::AddCustomContext(
      "available_cores",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("cxx_flags", CACKLE_BENCH_CXX_FLAGS);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
