#include "strategy/cost_calculator.h"

#include <utility>

#include "common/logging.h"
#include "strategy/allocation_model.h"

namespace cackle {

StrategyEvaluation EvaluateStrategy(
    ProvisioningStrategy* strategy,
    const std::vector<int64_t>& demand_per_second, const CostModel& cost,
    bool record_series) {
  StrategyEvaluation eval;
  std::vector<int64_t> targets = strategy->TargetSeries(demand_per_second);
  CACKLE_CHECK_EQ(targets.size(), demand_per_second.size());
  AllocationModel model(&cost);
  if (record_series) {
    eval.allocation_series.reserve(demand_per_second.size());
  }
  for (size_t t = 0; t < targets.size(); ++t) {
    const auto step = model.Step(targets[t], demand_per_second[t]);
    if (record_series) eval.allocation_series.push_back(step.available);
  }
  if (record_series) eval.target_series = std::move(targets);
  model.Finish();
  eval.vm_cost = model.vm_cost();
  eval.elastic_cost = model.elastic_cost();
  eval.vm_seconds = model.total_vm_seconds();
  eval.elastic_task_seconds = model.total_elastic_task_seconds();
  return eval;
}

}  // namespace cackle
