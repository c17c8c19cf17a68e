#include "cloud/vm_fleet.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/metric_names.h"

namespace cackle {

VmFleet::VmFleet(Simulation* sim, const CostModel* cost, BillingMeter* meter,
                 const SpotMarket* market, CostCategory category)
    : sim_(sim), cost_(cost), meter_(meter), market_(market),
      category_(category) {}

SimTimeMs VmFleet::startup_ms() const {
  return category_ == CostCategory::kShuffleNode ? cost_->shuffle_node_startup_ms
                                                 : cost_->vm_startup_ms;
}

SimTimeMs VmFleet::min_billing_ms() const {
  return category_ == CostCategory::kShuffleNode
             ? cost_->shuffle_node_min_billing_ms
             : cost_->vm_min_billing_ms;
}

void VmFleet::SetTarget(int64_t target) {
  CACKLE_CHECK_GE(target, 0);
  target_ = target;
  while (num_allocated() < target_) {
    const VmId id = static_cast<VmId>(vms_.size());
    vms_.push_back(Vm{});
    if (id % 64 == 0) ready_words_.push_back(0);
    Vm& vm = vms_.back();
    vm.state = VmState::kPending;
    vm.pending_event =
        sim_->ScheduleAfter(startup_ms(), [this, id] { OnVmStarted(id); });
    pending_.push_back(id);
  }
  ReconcileDown();
}

void VmFleet::OnVmStarted(VmId id) {
  Vm& vm = vms_[static_cast<size_t>(id)];
  CACKLE_CHECK(vm.state == VmState::kPending);
  // Remove from the pending queue (it is usually at the front because
  // startup delays are uniform, but cancellation may have reordered).
  auto it = std::find(pending_.begin(), pending_.end(), id);
  CACKLE_CHECK(it != pending_.end());
  pending_.erase(it);
  if (injector_ != nullptr && injector_->SampleVmLaunchFailure(sim_->NowMs())) {
    // Spot capacity error: the launch never completes and is not billed; a
    // maintained target re-requests the capacity (another startup delay).
    vm.state = VmState::kTerminated;
    ++total_launch_failures_;
    if (num_allocated() < target_) {
      const int64_t t = target_;
      SetTarget(t);
    }
    return;
  }
  vm.state = VmState::kIdle;
  vm.ready_time = sim_->NowMs();
  const size_t word = static_cast<size_t>(id) / 64;
  ready_words_[word] |= uint64_t{1} << (id % 64);
  first_ready_word_ = std::min(first_ready_word_, word);
  idle_.push_back(id);
  ++num_idle_;
  ++total_started_;
  if (mean_lifetime_hours_ > 0.0) {
    const double lifetime_hours =
        interruption_rng_.NextExponential(1.0 / mean_lifetime_hours_);
    const SimTimeMs lifetime = std::max<SimTimeMs>(
        kMillisPerSecond,
        static_cast<SimTimeMs>(lifetime_hours *
                               static_cast<double>(kMillisPerHour)));
    sim_->ScheduleAfter(lifetime, [this, id] { Interrupt(id); });
  }
  if (on_vm_ready_) on_vm_ready_(id);
  // The target may have dropped while this VM was starting.
  ReconcileDown();
}

std::optional<VmId> VmFleet::TryAcquire() {
  while (!idle_.empty()) {
    const VmId id = idle_.front();
    idle_.pop_front();
    Vm& vm = vms_[static_cast<size_t>(id)];
    if (vm.state != VmState::kIdle) continue;  // stale entry
    vm.state = VmState::kBusy;
    --num_idle_;
    ++num_busy_;
    return id;
  }
  return std::nullopt;
}

void VmFleet::Release(VmId id) {
  Vm& vm = vms_[static_cast<size_t>(id)];
  CACKLE_CHECK(vm.state == VmState::kBusy);
  vm.state = VmState::kIdle;
  --num_busy_;
  ++num_idle_;
  idle_.push_back(id);
  ReconcileDown();
}

void VmFleet::SetBusyTag(VmId id, uint32_t tag) {
  Vm& vm = vms_[static_cast<size_t>(id)];
  CACKLE_CHECK(vm.state == VmState::kBusy);
  vm.busy_tag = tag;
}

uint32_t VmFleet::BusyTag(VmId id) const {
  const Vm& vm = vms_[static_cast<size_t>(id)];
  CACKLE_CHECK(vm.state == VmState::kBusy);
  return vm.busy_tag;
}

void VmFleet::BillAndRetire(VmId id) {
  Vm& vm = vms_[static_cast<size_t>(id)];
  CACKLE_CHECK(vm.state != VmState::kTerminated);
  CACKLE_CHECK(vm.state != VmState::kPending);
  vm.state = VmState::kTerminated;
  ready_words_[static_cast<size_t>(id) / 64] &= ~(uint64_t{1} << (id % 64));
  ++total_terminated_;
  const SimTimeMs runtime = sim_->NowMs() - vm.ready_time;
  total_runtime_ms_ += runtime;
  double dollars = 0.0;
  const SimTimeMs billed = std::max(runtime, min_billing_ms());
  if (market_ != nullptr) {
    dollars = market_->DollarsOver(vm.ready_time, vm.ready_time + billed);
  } else if (category_ == CostCategory::kShuffleNode) {
    dollars = cost_->ShuffleNodeCost(runtime);
  } else {
    dollars = cost_->VmCost(runtime);
  }
  meter_->Charge(category_, dollars);
}

void VmFleet::Terminate(VmId id) {
  Vm& vm = vms_[static_cast<size_t>(id)];
  CACKLE_CHECK(vm.state == VmState::kIdle);
  --num_idle_;
  BillAndRetire(id);
}

void VmFleet::EnableInterruptions(uint64_t seed, double mean_lifetime_hours) {
  CACKLE_CHECK_GT(mean_lifetime_hours, 0.0);
  mean_lifetime_hours_ = mean_lifetime_hours;
  interruption_rng_ = Rng(seed);
}

void VmFleet::Interrupt(VmId id) {
  Vm& vm = vms_[static_cast<size_t>(id)];
  if (vm.state == VmState::kTerminated || vm.state == VmState::kPending) {
    return;
  }
  ++total_interrupted_;
  if (vm.state == VmState::kBusy) {
    // Let the scheduler rescue the task before the VM disappears.
    if (on_vm_interrupted_) on_vm_interrupted_(id);
    --num_busy_;
    BillAndRetire(id);
  } else {
    // The idle_ entry goes stale; every idle_ consumer skips it.
    --num_idle_;
    BillAndRetire(id);
  }
  // A maintained spot request replaces reclaimed capacity.
  if (num_allocated() < target_) {
    const int64_t t = target_;
    SetTarget(t);
  }
}

bool VmFleet::InterruptOneIdle() {
  // Stale entries at the front are dropped for good; the first live one is
  // the victim.
  while (!idle_.empty() &&
         vms_[static_cast<size_t>(idle_.front())].state != VmState::kIdle) {
    idle_.pop_front();
  }
  if (idle_.empty()) return false;
  const VmId victim = idle_.front();
  idle_.pop_front();
  Interrupt(victim);
  return true;
}

int64_t VmFleet::InterruptN(int64_t count) {
  if (count <= 0) return 0;
  // Pick victims by ascending id for determinism, then interrupt outside
  // the scan: rescuing a busy victim's task may acquire an idle VM, and
  // Interrupt tolerates (skips) victims whose state changed meanwhile.
  // The ready index holds exactly the idle and busy VMs, so the walk never
  // touches a retired one.
  while (first_ready_word_ < ready_words_.size() &&
         ready_words_[first_ready_word_] == 0) {
    ++first_ready_word_;
  }
  std::vector<VmId> victims;
  for (size_t word = first_ready_word_;
       word < ready_words_.size() &&
       static_cast<int64_t>(victims.size()) < count;
       ++word) {
    for (uint64_t bits = ready_words_[word];
         bits != 0 && static_cast<int64_t>(victims.size()) < count;
         bits &= bits - 1) {
      victims.push_back(static_cast<VmId>(word * 64) + std::countr_zero(bits));
    }
  }
  int64_t reclaimed = 0;
  for (VmId id : victims) {
    const VmState state = vms_[static_cast<size_t>(id)].state;
    if (state != VmState::kIdle && state != VmState::kBusy) continue;
    Interrupt(id);
    ++reclaimed;
  }
  return reclaimed;
}

void VmFleet::ReconcileDown() {
  // 1. Withdraw pending requests (newest first) at no cost — a spot
  //    request modification. Strategies hold their target between meta
  //    updates, so this does not starve the fleet on per-second noise.
  while (num_allocated() > target_ && !pending_.empty()) {
    const VmId id = pending_.back();
    pending_.pop_back();
    Vm& vm = vms_[static_cast<size_t>(id)];
    CACKLE_CHECK(vm.state == VmState::kPending);
    vm.state = VmState::kTerminated;
    sim_->Cancel(vm.pending_event);
  }
  // 2. Terminate idle VMs past their minimum billing window; defer others.
  //    Busy VMs are handled when they are released.
  if (num_allocated() <= target_) return;
  std::deque<VmId> still_idle;
  while (num_allocated() > target_ && !idle_.empty()) {
    const VmId id = idle_.front();
    idle_.pop_front();
    Vm& vm = vms_[static_cast<size_t>(id)];
    if (vm.state != VmState::kIdle) continue;
    if (sim_->NowMs() - vm.ready_time >= min_billing_ms()) {
      Terminate(id);
    } else {
      // Not worth terminating yet: re-check when the minimum billing time
      // has elapsed. Keep the VM acquirable in the meantime.
      still_idle.push_back(id);
      const SimTimeMs when = vm.ready_time + min_billing_ms();
      sim_->ScheduleAt(when, [this, id] { DeferredTerminationCheck(id); });
    }
  }
  for (VmId id : still_idle) idle_.push_back(id);
}

void VmFleet::DeferredTerminationCheck(VmId id) {
  Vm& vm = vms_[static_cast<size_t>(id)];
  if (vm.state != VmState::kIdle) return;        // got busy or terminated
  if (num_allocated() <= target_) return;        // target recovered
  Terminate(id);  // its idle_ entry goes stale
}

void VmFleet::TerminateAll() {
  target_ = 0;
  while (!pending_.empty()) {
    const VmId id = pending_.back();
    pending_.pop_back();
    Vm& vm = vms_[static_cast<size_t>(id)];
    vm.state = VmState::kTerminated;
    sim_->Cancel(vm.pending_event);
  }
  CACKLE_CHECK_EQ(num_busy_, 0) << "TerminateAll with busy VMs";
  while (!idle_.empty()) {
    const VmId id = idle_.front();
    idle_.pop_front();
    Vm& vm = vms_[static_cast<size_t>(id)];
    if (vm.state == VmState::kIdle) Terminate(id);
  }
  CACKLE_CHECK_EQ(num_idle_, 0);
}

bool VmFleet::IsReady(VmId id) const {
  if (id < 0 || id >= static_cast<VmId>(vms_.size())) return false;
  const VmState state = vms_[static_cast<size_t>(id)].state;
  return state == VmState::kIdle || state == VmState::kBusy;
}

void VmFleet::ExportMetrics(MetricsRegistry* metrics,
                            const std::string& prefix) const {
  namespace mn = metric_names;
  metrics->SetCounter(prefix + mn::kSuffixVmsStarted, total_started_);
  metrics->SetCounter(prefix + mn::kSuffixVmsTerminated, total_terminated_);
  metrics->SetCounter(prefix + mn::kSuffixVmsInterrupted,
                      total_interrupted_);
  metrics->SetCounter(prefix + mn::kSuffixLaunchFailures,
                      total_launch_failures_);
  metrics->SetCounter(prefix + mn::kSuffixRuntimeMs, total_runtime_ms_);
  metrics->SetGauge(prefix + mn::kSuffixTarget, static_cast<double>(target_));
  metrics->SetGauge(prefix + mn::kSuffixReady,
                    static_cast<double>(num_ready()));
}

}  // namespace cackle
