#include "strategy/allocation_model.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cackle {

namespace {
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
}  // namespace

AllocationModel::AllocationModel(const CostModel* cost, size_t n)
    : AllocationModel(cost->vm_startup_ms / 1000,
                      cost->vm_min_billing_ms / 1000, cost->VmCostPerSecond(),
                      cost->ElasticCostPerSecond(), n) {
  cost_ = cost;
}

AllocationModel::AllocationModel(int64_t startup_s, int64_t min_billing_s,
                                 double price_per_s,
                                 double elastic_price_per_s, size_t n)
    : startup_s_(startup_s), min_billing_s_(min_billing_s),
      vm_price_s_(price_per_s), elastic_price_s_(elastic_price_per_s),
      running_(n, 0), allocated_(n, 0), next_ready_s_(n, kNever),
      vm_cost_(n, 0.0), elastic_cost_(n, 0.0), vm_seconds_(n, 0),
      elastic_seconds_(n, 0), batches_(n) {
  CACKLE_CHECK_GE(startup_s_, 0);
  CACKLE_CHECK_GE(min_billing_s_, 0);
}

void AllocationModel::RefreshEnvironment() {
  if (cost_ == nullptr) return;
  startup_s_ = cost_->vm_startup_ms / 1000;
  min_billing_s_ = cost_->vm_min_billing_ms / 1000;
  vm_price_s_ = cost_->VmCostPerSecond();
  elastic_price_s_ = cost_->ElasticCostPerSecond();
}

template <typename Batch>
void AllocationModel::Ring<Batch>::Grow() {
  std::vector<Batch> grown(std::max<size_t>(4, 2 * buf_.size()));
  for (size_t k = 0; k < size_; ++k) grown[k] = at(k);
  buf_.swap(grown);
  head_ = 0;
}

void AllocationModel::StartVms(size_t i, Batches& b, int64_t count) {
  if (!b.running.empty() && b.running.back().start_s == now_s_) {
    b.running.back().count += count;
  } else {
    b.running.push_back(RunningBatch{now_s_, count});
  }
  running_[i] += count;
}

void AllocationModel::ApplyTarget(size_t i, int64_t target, int64_t demand) {
  CACKLE_CHECK_GE(target, 0);
  Batches& b = batches_[i];

  // 1. VMs whose startup delay elapsed become available.
  while (!b.pending.empty() && b.pending.front().ready_s <= now_s_) {
    StartVms(i, b, b.pending.front().count);
    b.pending.pop_front();
  }
  // VMs that met their minimum billing time join the interchangeable pool.
  while (!b.running.empty() &&
         now_s_ - b.running.front().start_s >= min_billing_s_) {
    b.mature += b.running.front().count;
    b.running.pop_front();
  }

  // 2. Apply the new target. A rise requests VMs (available after the
  //    startup delay). A drop first withdraws still-pending requests
  //    (newest first, free — a spot-request modification), then terminates
  //    idle VMs; busy VMs are "terminated once idle" (Section 4.1).
  int64_t& allocated = allocated_[i];
  if (target > allocated) {
    const int64_t add = target - allocated;
    if (startup_s_ == 0) {
      StartVms(i, b, add);
    } else {
      b.pending.push_back(PendingBatch{now_s_ + startup_s_, add});
    }
    allocated = target;
  } else if (target < allocated) {
    while (allocated > target && !b.pending.empty()) {
      PendingBatch& batch = b.pending.back();
      const int64_t cancel = std::min(batch.count, allocated - target);
      batch.count -= cancel;
      allocated -= cancel;
      if (batch.count == 0) b.pending.pop_back();
    }
    // Terminate idle VMs that met their minimum billing time; busy ones
    // stay until released, and VMs still inside their minimum billing
    // window stay too — there is no value in shutting them down before the
    // minimum elapses (Section 3), and they may be reused if demand returns.
    const int64_t busy = std::min<int64_t>(demand, running_[i]);
    const int64_t stop =
        std::min({b.mature, allocated - target, running_[i] - busy});
    if (stop > 0) {
      b.mature -= stop;
      running_[i] -= stop;
      allocated -= stop;
    }
  }
  next_ready_s_[i] = b.pending.empty() ? kNever : b.pending.front().ready_s;
}

void AllocationModel::Step(std::span<const int64_t> targets, int64_t demand,
                           std::span<double> accrued) {
  CACKLE_CHECK(!finished_);
  CACKLE_CHECK_GE(demand, 0);
  CACKLE_CHECK_EQ(targets.size(), size());
  CACKLE_CHECK_EQ(accrued.size(), size());
  RefreshEnvironment();

  // A model whose target equals its allocation and whose oldest request is
  // not due has nothing to apply. A negative target never equals the
  // allocation (>= 0), so ApplyTarget still rejects it.
  for (size_t i = 0; i < size(); ++i) {
    if (targets[i] != allocated_[i] || next_ready_s_[i] <= now_s_) {
      ApplyTarget(i, targets[i], demand);
    }
  }

  // Bill this second, each model in the order a lone model adds.
  for (size_t i = 0; i < size(); ++i) {
    const int64_t available = running_[i];
    const int64_t overflow = std::max<int64_t>(0, demand - available);
    const double vm = static_cast<double>(available) * vm_price_s_;
    const double elastic = static_cast<double>(overflow) * elastic_price_s_;
    vm_cost_[i] += vm;
    elastic_cost_[i] += elastic;
    vm_seconds_[i] += available;
    elastic_seconds_[i] += overflow;
    accrued[i] += vm + elastic;
  }
  ++now_s_;
}

AllocationModel::StepResult AllocationModel::Step(int64_t target,
                                                  int64_t demand) {
  double accrued = 0.0;
  Step({&target, 1}, demand, {&accrued, 1});
  // The same products the billing loop just added.
  StepResult result;
  result.available = running_[0];
  result.vm_cost = static_cast<double>(result.available) * vm_price_s_;
  result.elastic_cost =
      static_cast<double>(std::max<int64_t>(0, demand - result.available)) *
      elastic_price_s_;
  return result;
}

void AllocationModel::Finish() {
  CACKLE_CHECK(!finished_);
  // Final terminations still owe any unmet minimum billing. The penalty is
  // added once per VM, oldest first: n repeated additions differ from one
  // addition of n times the penalty in floating point.
  for (size_t i = 0; i < size(); ++i) {
    Ring<RunningBatch>& running = batches_[i].running;
    for (size_t k = 0; k < running.size(); ++k) {
      const RunningBatch& batch = running.at(k);
      const int64_t owed_s = min_billing_s_ - (now_s_ - batch.start_s);
      if (owed_s <= 0) continue;
      const double penalty = static_cast<double>(owed_s) * vm_price_s_;
      for (int64_t v = 0; v < batch.count; ++v) vm_cost_[i] += penalty;
      vm_seconds_[i] += owed_s * batch.count;
    }
    batches_[i] = Batches();
    running_[i] = 0;
    allocated_[i] = 0;
    next_ready_s_[i] = kNever;
  }
  finished_ = true;
}

}  // namespace cackle
