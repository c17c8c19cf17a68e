#include "strategy/allocation_model.h"

#include <algorithm>

#include "common/logging.h"

namespace cackle {

AllocationModel::AllocationModel(const CostModel* cost)
    : AllocationModel(cost->vm_startup_ms / 1000,
                      cost->vm_min_billing_ms / 1000, cost->VmCostPerSecond(),
                      cost->ElasticCostPerSecond()) {
  cost_ = cost;
}

void AllocationModel::RefreshEnvironment() {
  if (cost_ == nullptr) return;
  startup_s_ = cost_->vm_startup_ms / 1000;
  min_billing_s_ = cost_->vm_min_billing_ms / 1000;
  vm_price_s_ = cost_->VmCostPerSecond();
  elastic_price_s_ = cost_->ElasticCostPerSecond();
}

AllocationModel::AllocationModel(int64_t startup_s, int64_t min_billing_s,
                                 double price_per_s,
                                 double elastic_price_per_s)
    : startup_s_(startup_s), min_billing_s_(min_billing_s),
      vm_price_s_(price_per_s), elastic_price_s_(elastic_price_per_s) {
  CACKLE_CHECK_GE(startup_s_, 0);
  CACKLE_CHECK_GE(min_billing_s_, 0);
}

void AllocationModel::StartVms(int64_t count) {
  if (!running_.empty() && running_.back().start_s == now_s_) {
    running_.back().count += count;
  } else {
    running_.push_back(RunningBatch{now_s_, count});
  }
  running_count_ += count;
}

AllocationModel::StepResult AllocationModel::Step(int64_t target,
                                                  int64_t demand) {
  CACKLE_CHECK(!finished_);
  CACKLE_CHECK_GE(target, 0);
  CACKLE_CHECK_GE(demand, 0);
  RefreshEnvironment();

  // 1. VMs whose startup delay elapsed become available.
  while (!pending_.empty() && pending_.front().ready_s <= now_s_) {
    StartVms(pending_.front().count);
    pending_count_ -= pending_.front().count;
    pending_.pop_front();
  }

  // 2. Apply the new target. A rise requests VMs (available after the
  //    startup delay). A drop first withdraws still-pending requests
  //    (newest first, free — a spot-request modification), then terminates
  //    idle VMs; busy VMs are "terminated once idle" (Section 4.1).
  int64_t allocated = available() + pending_count_;
  if (target > allocated) {
    const int64_t add = target - allocated;
    if (startup_s_ == 0) {
      StartVms(add);
    } else {
      pending_.push_back(PendingBatch{now_s_ + startup_s_, add});
      pending_count_ += add;
    }
  } else if (target < allocated) {
    while (allocated > target && pending_count_ > 0) {
      PendingBatch& batch = pending_.back();
      const int64_t cancel = std::min(batch.count, allocated - target);
      batch.count -= cancel;
      pending_count_ -= cancel;
      allocated -= cancel;
      if (batch.count == 0) pending_.pop_back();
    }
    // Terminate idle VMs (oldest first); busy ones stay until released,
    // and VMs still inside their minimum billing window stay too — there
    // is no value in shutting them down before the minimum elapses
    // (Section 3), and they may be reused if demand returns.
    const int64_t busy = std::min<int64_t>(demand, available());
    int64_t idle = available() - busy;
    while (allocated > target && idle > 0 && !running_.empty() &&
           now_s_ - running_.front().start_s >= min_billing_s_) {
      RunningBatch& oldest = running_.front();
      const int64_t stop = std::min({oldest.count, allocated - target, idle});
      oldest.count -= stop;
      running_count_ -= stop;
      idle -= stop;
      allocated -= stop;
      if (oldest.count == 0) running_.pop_front();
    }
  }

  // 3. Bill this second.
  StepResult result;
  result.available = available();
  result.vm_cost = static_cast<double>(result.available) * vm_price_s_;
  const int64_t overflow = std::max<int64_t>(0, demand - result.available);
  result.elastic_cost = static_cast<double>(overflow) * elastic_price_s_;
  vm_cost_ += result.vm_cost;
  elastic_cost_ += result.elastic_cost;
  total_vm_seconds_ += result.available;
  total_elastic_task_seconds_ += overflow;

  ++now_s_;
  return result;
}

void AllocationModel::Finish() {
  CACKLE_CHECK(!finished_);
  pending_.clear();
  pending_count_ = 0;
  // Final terminations still owe any unmet minimum billing. The penalty is
  // added once per VM, oldest first: n repeated additions differ from one
  // addition of n times the penalty in floating point.
  for (const RunningBatch& batch : running_) {
    const int64_t owed_s = min_billing_s_ - (now_s_ - batch.start_s);
    if (owed_s <= 0) continue;
    const double penalty = static_cast<double>(owed_s) * vm_price_s_;
    for (int64_t i = 0; i < batch.count; ++i) vm_cost_ += penalty;
    total_vm_seconds_ += owed_s * batch.count;
  }
  running_.clear();
  running_count_ = 0;
  finished_ = true;
}

}  // namespace cackle
