#ifndef CACKLE_STRATEGY_COST_CALCULATOR_H_
#define CACKLE_STRATEGY_COST_CALCULATOR_H_

#include <cstdint>
#include <vector>

#include "cloud/cost_model.h"
#include "strategy/strategy.h"

namespace cackle {

/// \brief Outcome of evaluating one strategy against a demand series.
struct StrategyEvaluation {
  double vm_cost = 0.0;
  double elastic_cost = 0.0;
  double total() const { return vm_cost + elastic_cost; }
  int64_t vm_seconds = 0;
  int64_t elastic_task_seconds = 0;
  /// Per-second series, populated when `record_series` is set: the
  /// strategy's target and the resulting allocation (available VMs).
  std::vector<int64_t> target_series;
  std::vector<int64_t> allocation_series;
};

/// \brief Replays `demand_per_second` through `strategy` (its TargetSeries:
/// the targets per-second replay of the workload history yields) and prices
/// the induced allocation with the cost model (Sections 4.4.1-4.4.3 as one
/// pipeline).
///
/// This is the compute-layer cost calculation used by both the analytical
/// model and the experiments; the engine simulation exercises the same
/// strategy objects against the DES substrate instead.
StrategyEvaluation EvaluateStrategy(ProvisioningStrategy* strategy,
                                    const std::vector<int64_t>& demand_per_second,
                                    const CostModel& cost,
                                    bool record_series = false);

}  // namespace cackle

#endif  // CACKLE_STRATEGY_COST_CALCULATOR_H_
