#ifndef CACKLE_EXEC_PLAN_H_
#define CACKLE_EXEC_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/table.h"

namespace cackle {
class MetricsRegistry;
class ThreadPool;
}  // namespace cackle

namespace cackle::exec {

/// \brief Output of one executed stage: one table per shuffle partition.
struct StageOutput {
  std::vector<Table> partitions;
};

/// \brief Inputs handed to a task: for each dependency, the partitions this
/// task should read. Broadcast dependencies supply every task the same
/// single partition; partitioned dependencies supply partition
/// `task_index`.
struct TaskInput {
  std::vector<const Table*> tables;  // one per dependency, in deps order
};

/// \brief A stage of a physical query plan, Cackle-style: `num_tasks`
/// independent tasks that each consume their share of the upstream shuffle
/// and produce output rows. After all tasks finish, the stage's output is
/// hash-partitioned on `output_keys` into `output_partitions` partitions
/// for downstream stages (empty keys + 1 partition = gather/broadcast).
struct PlanStage {
  std::string label;
  std::vector<int> deps;
  /// For each dep: true = every task reads the dep's single gathered
  /// partition (broadcast); false = task t reads the dep's partition t
  /// (requires dep.output_partitions == num_tasks).
  std::vector<bool> broadcast;
  int num_tasks = 1;
  /// Runs task `task_index`; `input.tables[i]` corresponds to deps[i].
  std::function<Table(int task_index, const TaskInput& input)> run;
  std::vector<std::string> output_keys;
  int output_partitions = 1;
};

/// \brief A full query plan: stages in topological order; the last stage's
/// single gathered partition is the query result.
struct StagePlan {
  std::string name;
  std::vector<PlanStage> stages;
};

/// \brief Per-stage execution statistics captured by the executor — the raw
/// material for Cackle QueryProfiles.
struct StageStats {
  std::string label;
  int num_tasks = 0;
  std::vector<int64_t> task_micros;
  int64_t output_bytes = 0;  // bytes shuffled to downstream stages
  int64_t output_rows = 0;
};

struct PlanRunStats {
  std::vector<StageStats> stages;
  int64_t total_micros = 0;
  /// Peak bytes of live stage shuffle outputs during the run. A stage's
  /// partitions are freed after its last consumer finishes reading them, so
  /// on deep plans this is well below the sum of all stage output bytes.
  int64_t peak_resident_bytes = 0;
};

/// \brief Executes a StagePlan, measuring each task's wall time and each
/// stage's shuffled output size.
///
/// With `num_threads` == 1 (default) everything runs serially in index
/// order. With more threads the executor runs stage tasks, per-task hash
/// partitioning, and per-partition concatenation as tasks on a persistent
/// work-stealing ThreadPool, and overlaps independent stages by scheduling
/// along the dependency DAG. Results are bit-identical in every
/// configuration: task outputs land in per-index slots and every merge
/// (partition collection, concatenation) walks fixed index order, so even
/// floating-point summation order matches serial execution.
///
/// The pool persists across Execute() calls for the executor's lifetime.
/// One executor must not be used from several threads at once.
class PlanExecutor {
 public:
  /// `num_threads` is the total executor threads. 1 = serial in index
  /// order. With N >= 2 the executor keeps a persistent work-stealing pool
  /// of N-1 workers and the calling thread helps while waiting, so N threads
  /// execute tasks.
  explicit PlanExecutor(int num_threads = 1);
  ~PlanExecutor();

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  /// Runs the plan; returns the result table. `stats` may be null.
  Table Execute(const StagePlan& plan, PlanRunStats* stats = nullptr);

  int num_threads() const { return num_threads_; }

  /// Exports pool counters (tasks run, steals, queue depth, busy time) and
  /// executor totals under `prefix`, conventionally "exec.pool".
  void ExportMetrics(MetricsRegistry* metrics,
                     const std::string& prefix) const;

 private:
  /// Lazily creates the persistent pool (num_threads - 1 workers).
  ThreadPool* EnsurePool();

  int num_threads_;
  std::unique_ptr<ThreadPool> pool_;
  int64_t plans_run_ = 0;
  int64_t stages_run_ = 0;
};

/// Validates stage ids/deps/partition contracts; aborts on violation.
/// Returns the plan for chaining.
const StagePlan& ValidatePlan(const StagePlan& plan);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_PLAN_H_
