#include "exec/plan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/op_context.h"
#include "exec/operators.h"

namespace cackle::exec {

PlanExecutor::PlanExecutor(int num_threads) : num_threads_(num_threads) {
  CACKLE_CHECK_GE(num_threads, 1);
}

PlanExecutor::~PlanExecutor() = default;

ThreadPool* PlanExecutor::EnsurePool() {
  if (pool_ == nullptr) {
    // The calling thread helps while waiting on task groups, so N-1 workers
    // plus the caller give num_threads concurrent executors.
    pool_ = std::make_unique<ThreadPool>(num_threads_ - 1);
  }
  return pool_.get();
}

void PlanExecutor::ExportMetrics(MetricsRegistry* metrics,
                                 const std::string& prefix) const {
  metrics->SetCounter(prefix + metric_names::kSuffixPlansRun, plans_run_);
  metrics->SetCounter(prefix + metric_names::kSuffixStagesRun, stages_run_);
  if (pool_ != nullptr) pool_->ExportMetrics(metrics, prefix);
}

const StagePlan& ValidatePlan(const StagePlan& plan) {
  CACKLE_CHECK(!plan.stages.empty()) << plan.name << ": empty plan";
  for (size_t i = 0; i < plan.stages.size(); ++i) {
    const PlanStage& stage = plan.stages[i];
    CACKLE_CHECK_GT(stage.num_tasks, 0) << plan.name << "/" << stage.label;
    CACKLE_CHECK(stage.run != nullptr) << plan.name << "/" << stage.label;
    CACKLE_CHECK_EQ(stage.deps.size(), stage.broadcast.size())
        << plan.name << "/" << stage.label;
    CACKLE_CHECK_GT(stage.output_partitions, 0)
        << plan.name << "/" << stage.label;
    for (size_t d = 0; d < stage.deps.size(); ++d) {
      const int dep = stage.deps[d];
      CACKLE_CHECK_GE(dep, 0);
      CACKLE_CHECK_LT(dep, static_cast<int>(i))
          << plan.name << ": deps must be topological";
      const PlanStage& upstream = plan.stages[static_cast<size_t>(dep)];
      if (stage.broadcast[d]) {
        CACKLE_CHECK_EQ(upstream.output_partitions, 1)
            << plan.name << "/" << stage.label
            << ": broadcast dep must gather to one partition";
      } else {
        CACKLE_CHECK_EQ(upstream.output_partitions, stage.num_tasks)
            << plan.name << "/" << stage.label
            << ": partitioned dep must match task count";
      }
    }
  }
  const PlanStage& last = plan.stages.back();
  CACKLE_CHECK_EQ(last.output_partitions, 1)
      << plan.name << ": final stage must gather to one partition";
  return plan;
}

namespace {

/// One plan execution: per-stage runtime state plus the phase functions
/// both drivers (serial, pooled-pipelined) run in the same per-slot order,
/// which is what keeps results bit-identical.
///
/// A stage flows through three phases:
///   task phase      RunTask(i, t)        -> task_outputs[t]
///   partition phase PartitionTask(i, t)  -> parts[t][p]     (multi-part)
///                   or one GatherConcat(i)                  (single-part)
///   concat phase    ConcatPartition(i, p)-> outputs[i].partitions[p]
/// followed by FinishStage(i) bookkeeping. Upstream inputs are only read
/// during the task phase, so consumer refcounts drop when it ends and a
/// fully-consumed stage's partitions are freed immediately.
class PlanRun {
 public:
  PlanRun(const StagePlan& plan, PlanRunStats* stats)
      : plan_(plan),
        stats_(stats),
        outputs_(plan.stages.size()),
        stages_(plan.stages.size()) {
    if (stats_ != nullptr) {
      stats_->stages.clear();
      stats_->stages.resize(plan.stages.size());
      stats_->peak_resident_bytes = 0;
    }
    for (size_t i = 0; i < plan_.stages.size(); ++i) {
      const PlanStage& stage = plan_.stages[i];
      StageState& state = stages_[i];
      state.deps_left.store(static_cast<int>(stage.deps.size()),
                            std::memory_order_relaxed);
      state.tasks_left.store(stage.num_tasks, std::memory_order_relaxed);
      state.task_outputs.resize(static_cast<size_t>(stage.num_tasks));
      state.task_micros.assign(static_cast<size_t>(stage.num_tasks), 0);
      for (const int dep : stage.deps) {
        stages_[static_cast<size_t>(dep)].consumers_left.fetch_add(
            1, std::memory_order_relaxed);
        consumers_[dep].push_back(static_cast<int>(i));
      }
      if (stats_ != nullptr) {
        stats_->stages[i].label = stage.label;
        stats_->stages[i].num_tasks = stage.num_tasks;
      }
    }
  }

  Table Run(ThreadPool* pool) {
    op_context_.report_scratch_bytes = [this](int64_t bytes) {
      ReportScratch(bytes);
    };
    if (pool == nullptr) {
      RunSerial();
    } else {
      RunPipelined(pool);
    }
    if (stats_ != nullptr) {
      // All pool tasks have completed (the run drivers wait), but the
      // analysis cannot see that quiescence; take the lock for the final
      // read rather than annotating it away.
      MutexLock lock(&residency_mu_);
      stats_->peak_resident_bytes = peak_resident_;
    }
    CACKLE_CHECK_EQ(outputs_.back().partitions.size(), 1u) << plan_.name;
    return std::move(outputs_.back().partitions[0]);
  }

 private:
  struct StageState {
    std::atomic<int> deps_left{0};
    std::atomic<int> tasks_left{0};
    std::atomic<int> partitions_left{0};
    std::atomic<int> concats_left{0};
    std::atomic<int> consumers_left{0};
    std::vector<Table> task_outputs;
    /// parts[t][p]: task t's hash partition p (multi-partition shuffle).
    std::vector<std::vector<Table>> parts;
    std::vector<int64_t> task_micros;
    /// Bytes this stage's finished partitions hold (set by FinishStage,
    /// read under residency_mu_ when the stage is freed).
    int64_t resident_bytes = 0;
  };

  // --- phase bodies (identical work in every driver) -----------------------

  void RunTask(size_t i, int t) {
    const PlanStage& stage = plan_.stages[i];
    const ScopedLogContext ctx(plan_.name + "/" + stage.label);
    const ScopedOpExecContext op_ctx(&op_context_);
    StageState& state = stages_[i];
    TaskInput input;
    input.tables.reserve(stage.deps.size());
    for (size_t d = 0; d < stage.deps.size(); ++d) {
      const StageOutput& up = outputs_[static_cast<size_t>(stage.deps[d])];
      const size_t part = stage.broadcast[d] ? 0 : static_cast<size_t>(t);
      CACKLE_CHECK_LT(part, up.partitions.size());
      input.tables.push_back(&up.partitions[part]);
    }
    // Per-task wall time feeds profiling stats only, never query
    // results or billing.
    // NOLINTNEXTLINE(cackle-determinism): profiling-only timing.
    const auto t0 = std::chrono::steady_clock::now();
    state.task_outputs[static_cast<size_t>(t)] = stage.run(t, input);
    state.task_micros[static_cast<size_t>(t)] =
        std::chrono::duration_cast<std::chrono::microseconds>(
            // NOLINTNEXTLINE(cackle-determinism): profiling-only timing.
            std::chrono::steady_clock::now() - t0)
            .count();
  }

  void PartitionTask(size_t i, int t) {
    const PlanStage& stage = plan_.stages[i];
    const ScopedLogContext ctx(plan_.name + "/" + stage.label);
    const ScopedOpExecContext op_ctx(&op_context_);
    StageState& state = stages_[i];
    state.parts[static_cast<size_t>(t)] =
        PartitionByHash(state.task_outputs[static_cast<size_t>(t)],
                        stage.output_keys, stage.output_partitions);
    // The raw task output is fully partitioned now; drop it early.
    state.task_outputs[static_cast<size_t>(t)] = Table();
  }

  void ConcatPartition(size_t i, int p) {
    StageState& state = stages_[i];
    std::vector<Table> group;
    group.reserve(state.parts.size());
    for (auto& task_parts : state.parts) {
      group.push_back(std::move(task_parts[static_cast<size_t>(p)]));
    }
    outputs_[i].partitions[static_cast<size_t>(p)] = Concat(group);
  }

  void GatherConcat(size_t i) {
    StageState& state = stages_[i];
    outputs_[i].partitions[0] = Concat(state.task_outputs);
    state.task_outputs.clear();
  }

  /// Folds one operator's transient scratch high-water (packed-key vectors,
  /// hash tables, emit buffers) into the peak residency figure. Concurrent
  /// operators each raise the peak against the same resident base, which
  /// understates overlap but never hides an operator's footprint entirely.
  void ReportScratch(int64_t bytes) {
    MutexLock lock(&residency_mu_);
    peak_resident_ = std::max(peak_resident_, current_resident_ + bytes);
  }

  /// Drops one consumer reference on every dependency of stage `i` (called
  /// once its task phase — the only phase that reads inputs — completes).
  void ReleaseInputs(size_t i) {
    for (const int dep : plan_.stages[i].deps) {
      StageState& up = stages_[static_cast<size_t>(dep)];
      if (up.consumers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        FreeStageOutput(static_cast<size_t>(dep));
      }
    }
  }

  void FreeStageOutput(size_t i) {
    if (i + 1 == plan_.stages.size()) return;  // the plan result
    {
      MutexLock lock(&residency_mu_);
      current_resident_ -= stages_[i].resident_bytes;
    }
    outputs_[i].partitions.clear();
    outputs_[i].partitions.shrink_to_fit();
  }

  /// Post-shuffle bookkeeping: stats, residency accounting, buffer cleanup.
  void FinishStage(size_t i) {
    StageState& state = stages_[i];
    state.parts.clear();
    state.task_outputs.clear();
    int64_t bytes = 0;
    int64_t rows = 0;
    for (const Table& p : outputs_[i].partitions) {
      bytes += p.EstimateBytes();
      rows += p.num_rows();
    }
    state.resident_bytes = bytes;
    {
      MutexLock lock(&residency_mu_);
      current_resident_ += bytes;
      peak_resident_ = std::max(peak_resident_, current_resident_);
    }
    if (stats_ != nullptr) {
      StageStats& sstats = stats_->stages[i];
      sstats.task_micros = std::move(state.task_micros);
      sstats.output_bytes = bytes;
      sstats.output_rows = rows;
    }
    // A stage nothing consumes (and that isn't the result) can go now.
    if (state.consumers_left.load(std::memory_order_acquire) == 0) {
      FreeStageOutput(i);
    }
  }

  void PrepareShuffle(size_t i) {
    const PlanStage& stage = plan_.stages[i];
    StageState& state = stages_[i];
    outputs_[i].partitions.resize(
        static_cast<size_t>(stage.output_partitions));
    if (stage.output_partitions > 1) {
      CACKLE_CHECK(!stage.output_keys.empty())
          << plan_.name << "/" << stage.label
          << ": multi-partition output needs keys";
      state.parts.resize(static_cast<size_t>(stage.num_tasks));
    }
  }

  // --- drivers -------------------------------------------------------------

  void RunSerial() {
    for (size_t i = 0; i < plan_.stages.size(); ++i) {
      const PlanStage& stage = plan_.stages[i];
      for (int t = 0; t < stage.num_tasks; ++t) RunTask(i, t);
      ReleaseInputs(i);
      PrepareShuffle(i);
      if (stage.output_partitions == 1) {
        GatherConcat(i);
      } else {
        for (int t = 0; t < stage.num_tasks; ++t) PartitionTask(i, t);
        for (int p = 0; p < stage.output_partitions; ++p) {
          ConcatPartition(i, p);
        }
      }
      FinishStage(i);
    }
  }

  /// DAG-pipelined: a stage is scheduled the moment its last dependency
  /// finishes its shuffle, so independent stages overlap. All chaining
  /// happens inside running tasks (successors are submitted before the
  /// current task retires), so the single plan-wide group's outstanding
  /// count only reaches zero when the whole DAG has drained.
  void RunPipelined(ThreadPool* pool) {
    group_ = std::make_unique<TaskGroup>(pool, plan_.name);
    for (size_t i = 0; i < plan_.stages.size(); ++i) {
      if (plan_.stages[i].deps.empty()) ScheduleStage(i);
    }
    group_->Wait();
    group_.reset();
  }

  void ScheduleStage(size_t i) {
    for (int t = 0; t < plan_.stages[i].num_tasks; ++t) {
      group_->Submit([this, i, t] {
        RunTask(i, t);
        OnTaskDone(i);
      });
    }
  }

  void OnTaskDone(size_t i) {
    StageState& state = stages_[i];
    if (state.tasks_left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    ReleaseInputs(i);
    PrepareShuffle(i);
    const PlanStage& stage = plan_.stages[i];
    if (stage.output_partitions == 1) {
      GatherConcat(i);
      CompleteStage(i);
      return;
    }
    state.partitions_left.store(stage.num_tasks, std::memory_order_release);
    for (int t = 0; t < stage.num_tasks; ++t) {
      group_->Submit([this, i, t] {
        PartitionTask(i, t);
        OnPartitionDone(i);
      });
    }
  }

  void OnPartitionDone(size_t i) {
    StageState& state = stages_[i];
    if (state.partitions_left.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    const int partitions = plan_.stages[i].output_partitions;
    state.concats_left.store(partitions, std::memory_order_release);
    for (int p = 0; p < partitions; ++p) {
      group_->Submit([this, i, p] {
        ConcatPartition(i, p);
        OnConcatDone(i);
      });
    }
  }

  void OnConcatDone(size_t i) {
    if (stages_[i].concats_left.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
      CompleteStage(i);
    }
  }

  void CompleteStage(size_t i) {
    FinishStage(i);
    const auto it = consumers_.find(static_cast<int>(i));
    if (it == consumers_.end()) return;
    for (const int consumer : it->second) {
      StageState& down = stages_[static_cast<size_t>(consumer)];
      if (down.deps_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ScheduleStage(static_cast<size_t>(consumer));
      }
    }
  }

  const StagePlan& plan_;
  PlanRunStats* stats_;
  std::vector<StageOutput> outputs_;
  std::vector<StageState> stages_;
  /// Stage -> dependent stage ids (one entry per dep edge, duplicates kept
  /// so deps_left/consumers_left stay consistent with repeated deps).
  std::map<int, std::vector<int>> consumers_;
  std::unique_ptr<TaskGroup> group_;
  /// Installed thread-locally around every task body (ScopedOpExecContext)
  /// so operators can report their scratch bytes.
  OpExecContext op_context_;
  /// Residency accounting is the one piece of PlanRun state concurrent
  /// tasks mutate outside per-index slots; everything else merges in fixed
  /// index order (see the class comment on determinism).
  Mutex residency_mu_;
  int64_t current_resident_ CACKLE_GUARDED_BY(residency_mu_) = 0;
  int64_t peak_resident_ CACKLE_GUARDED_BY(residency_mu_) = 0;
};

}  // namespace

Table PlanExecutor::Execute(const StagePlan& plan, PlanRunStats* stats) {
  ValidatePlan(plan);
  // Plan wall time feeds PlanRunStats for benchmarks only; results and
  // metrics stay deterministic.
  // NOLINTNEXTLINE(cackle-determinism): profiling-only timing.
  const auto t0 = std::chrono::steady_clock::now();
  const bool pooled =
      num_threads_ > 1 &&
      !(plan.stages.size() == 1 && plan.stages[0].num_tasks == 1);
  PlanRun run(plan, stats);
  Table result = run.Run(pooled ? EnsurePool() : nullptr);
  ++plans_run_;
  stages_run_ += static_cast<int64_t>(plan.stages.size());
  if (stats != nullptr) {
    stats->total_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              // NOLINTNEXTLINE(cackle-determinism): ditto.
                              std::chrono::steady_clock::now() - t0)
                              .count();
  }
  return result;
}

}  // namespace cackle::exec
