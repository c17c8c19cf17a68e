#ifndef CACKLE_EXEC_QUERY_BUILDER_H_
#define CACKLE_EXEC_QUERY_BUILDER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "exec/operators.h"
#include "exec/plan.h"

namespace cackle::exec {

/// \brief Helper for assembling StagePlans. Internal to the query builders.
class PlanBuilder {
 public:
  explicit PlanBuilder(std::string name) { plan_.name = std::move(name); }

  /// Generic stage; returns its id.
  int AddStage(PlanStage stage) {
    plan_.stages.push_back(std::move(stage));
    return static_cast<int>(plan_.stages.size()) - 1;
  }

  /// Parallel scan of a base table: each task projects its row range,
  /// applying `filter` (nullable) and `projections`, and shuffles on
  /// `out_keys` into `out_partitions` partitions (empty keys + 1 partition
  /// = gather).
  int AddScan(std::string label, const Table* table, int tasks,
              ExprPtr filter, std::vector<NamedExpr> projections,
              std::vector<std::string> out_keys, int out_partitions) {
    PlanStage stage;
    stage.label = std::move(label);
    stage.num_tasks = tasks;
    stage.output_keys = std::move(out_keys);
    stage.output_partitions = out_partitions;
    stage.run = [table, tasks, filter = std::move(filter),
                 projections = std::move(projections)](
                    int t, const TaskInput&) -> Table {
      const int64_t n = table->num_rows();
      return Project(*table, filter, projections, n * t / tasks,
                     n * (t + 1) / tasks);
    };
    return AddStage(std::move(stage));
  }

  /// Single-task stage transforming the gathered outputs of `deps`
  /// (each broadcast). Used for final sorts and small build sides.
  int AddSingleTask(std::string label, std::vector<int> deps,
                    std::function<Table(const TaskInput&)> fn,
                    std::vector<std::string> out_keys = {},
                    int out_partitions = 1) {
    PlanStage stage;
    stage.label = std::move(label);
    stage.deps = std::move(deps);
    stage.broadcast.assign(stage.deps.size(), true);
    stage.num_tasks = 1;
    stage.output_keys = std::move(out_keys);
    stage.output_partitions = out_partitions;
    stage.run = [fn = std::move(fn)](int, const TaskInput& input) {
      return fn(input);
    };
    return AddStage(std::move(stage));
  }

  /// Parallel stage over co-partitioned inputs: `deps[i]` is broadcast when
  /// `broadcast[i]`, else its partition t feeds task t.
  int AddPartitionedStage(
      std::string label, std::vector<int> deps, std::vector<bool> broadcast,
      int tasks, std::function<Table(const TaskInput&)> fn,
      std::vector<std::string> out_keys = {}, int out_partitions = 1) {
    PlanStage stage;
    stage.label = std::move(label);
    stage.deps = std::move(deps);
    stage.broadcast = std::move(broadcast);
    stage.num_tasks = tasks;
    stage.output_keys = std::move(out_keys);
    stage.output_partitions = out_partitions;
    stage.run = [fn = std::move(fn)](int, const TaskInput& input) {
      return fn(input);
    };
    return AddStage(std::move(stage));
  }

  StagePlan Build() { return std::move(plan_); }

 private:
  StagePlan plan_;
};

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_QUERY_BUILDER_H_
