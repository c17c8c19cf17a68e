#ifndef CACKLE_STRATEGY_ALLOCATION_MODEL_H_
#define CACKLE_STRATEGY_ALLOCATION_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "cloud/cost_model.h"

namespace cackle {

/// \brief Second-granularity model of how a target history turns into an
/// allocation history (Section 4.4.2) and what it costs (Section 4.4.3).
///
/// Rules mirror the simulated cloud substrate:
///  - A rise in target requests VMs that become available after the startup
///    delay (in whole seconds).
///  - A drop in target first cancels still-pending requests (newest first,
///    free), then terminates idle VMs — oldest first, and only VMs that
///    have met their minimum billing time (younger idle VMs stay: there is
///    no value in stopping them early, and they may be reused).
///  - Only idle VMs terminate: with demand d and a available, min(d, a) VMs
///    are busy, so at most max(0, a - d) can stop this second.
///  - Each second costs: available x VM price + overflow x elastic price,
///    where overflow = max(0, demand - available). (Section 4.4.3: demand
///    under the allocation runs on VMs, the excess on the elastic pool.)
///
/// One instance steps a batch of `size()` independent models in lockstep:
/// every model serves the same demand under the same environment, each with
/// its own target (the dynamic meta-strategy keeps one model per expert;
/// single-strategy callers use a batch of one). A model whose target equals
/// its allocation and whose oldest pending request is not yet due has
/// nothing to apply, so its second is only billing; only the others touch
/// their VM batches (VMs requested or started in the same second are one
/// batch). Per-model state is held as parallel arrays, and a model's batch
/// lists are allocated the first time it has batch work.
class AllocationModel {
 public:
  /// `n` models reading prices, startup delay and minimum billing from
  /// `cost` once per step, so mid-workload environment changes
  /// (Section 5.3: spot prices nearly doubling within a quarter) take
  /// effect on the next step.
  explicit AllocationModel(const CostModel* cost, size_t n = 1);

  /// Generalized constructor for other provisioned fleets (the shuffle layer
  /// reuses the same allocation rules with its own prices; its overflow is
  /// priced per request by the caller, so `elastic_price_per_s` may be 0).
  AllocationModel(int64_t startup_s, int64_t min_billing_s, double price_per_s,
                  double elastic_price_per_s, size_t n = 1);

  struct StepResult {
    /// VMs available during this second.
    int64_t available = 0;
    /// Dollars accrued this second (including any early-termination
    /// minimum-billing penalties paid this second).
    double vm_cost = 0.0;
    double elastic_cost = 0.0;
  };

  /// Advances a batch of one (size() must be 1) a second: applies the
  /// strategy's `target`, serves `demand`.
  StepResult Step(int64_t target, int64_t demand);

  /// Advances every model a second: model i applies `targets[i]` (size()
  /// entries), all serve `demand`, and model i's cost this second
  /// (VM + elastic) is added to `accrued[i]`.
  void Step(std::span<const int64_t> targets, int64_t demand,
            std::span<double> accrued);

  /// Terminates everything (end of workload), charging remaining
  /// minimum-billing penalties. Further Steps are invalid.
  void Finish();

  size_t size() const { return running_.size(); }
  int64_t now_s() const { return now_s_; }
  int64_t available(size_t i = 0) const { return running_[i]; }
  int64_t pending(size_t i = 0) const { return allocated_[i] - running_[i]; }
  double vm_cost(size_t i = 0) const { return vm_cost_[i]; }
  double elastic_cost(size_t i = 0) const { return elastic_cost_[i]; }
  double total_cost(size_t i = 0) const {
    return vm_cost_[i] + elastic_cost_[i];
  }
  int64_t total_vm_seconds(size_t i = 0) const { return vm_seconds_[i]; }
  int64_t total_elastic_task_seconds(size_t i = 0) const {
    return elastic_seconds_[i];
  }

 private:
  struct PendingBatch {
    int64_t ready_s;  // second at which these VMs become available
    int64_t count;
  };
  struct RunningBatch {
    int64_t start_s;  // second at which these VMs became available
    int64_t count;
  };
  /// One model's requests and VMs, oldest first.
  struct Batches {
    std::deque<PendingBatch> pending;
    std::deque<RunningBatch> running;
  };

  /// Re-reads the environment from the CostModel (when constructed from one).
  void RefreshEnvironment();
  /// Starts due requests of model `i` and applies its `target`.
  void ApplyTarget(size_t i, int64_t target, int64_t demand);
  /// Appends `count` VMs available from now on to model `i` (merged into the
  /// newest batch when it started this second).
  void StartVms(size_t i, Batches& b, int64_t count);

  const CostModel* cost_ = nullptr;  // null for the fixed-price constructor
  int64_t startup_s_;
  int64_t min_billing_s_;
  double vm_price_s_;
  double elastic_price_s_;
  int64_t now_s_ = 0;
  bool finished_ = false;

  // Per-model state, indexed by model.
  std::vector<int64_t> running_;    // available VMs
  std::vector<int64_t> allocated_;  // available + pending
  /// Ready second of the oldest pending request; kNever when none.
  std::vector<int64_t> next_ready_s_;
  std::vector<double> vm_cost_;
  std::vector<double> elastic_cost_;
  std::vector<int64_t> vm_seconds_;
  std::vector<int64_t> elastic_seconds_;
  /// Null until the model first has batch work.
  std::vector<std::unique_ptr<Batches>> batches_;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_ALLOCATION_MODEL_H_
