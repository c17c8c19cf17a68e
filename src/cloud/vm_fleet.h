#ifndef CACKLE_CLOUD_VM_FLEET_H_
#define CACKLE_CLOUD_VM_FLEET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cloud/billing.h"
#include "cloud/cost_model.h"
#include "cloud/fault_injector.h"
#include "cloud/spot_market.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "sim/simulation.h"

namespace cackle {

using VmId = int64_t;

/// \brief A fleet of provisioned (spot) virtual machines inside the
/// discrete-event simulation.
///
/// Mirrors the behaviour Cackle relies on (Sections 3 and 4.1 of the paper):
///  - The coordinator sets a *target* count (a spot-request modification).
///  - New VMs become READY only after the startup latency.
///  - Acquire/Release move a READY VM between IDLE and BUSY; tasks are never
///    queued on the fleet — callers fall back to the elastic pool when no
///    idle VM exists.
///  - When the target drops, pending (not yet started) VMs are cancelled
///    first at no cost; surplus VMs are terminated *once idle*, and never
///    before their minimum billing time has elapsed (there is no value in
///    doing so).
///  - Billing covers READY to termination at per-second granularity with a
///    one-minute minimum, priced by the spot market (constant by default).
class CACKLE_THREAD_CONFINED(
    "fleet and tenant-reservation state mutate only from simulation "
    "callbacks on the owning thread")
VmFleet {
 public:
  /// `market` may be null, in which case `cost->vm_cost_per_hour` applies.
  /// `category` lets the shuffle layer reuse this class for shuffle nodes.
  VmFleet(Simulation* sim, const CostModel* cost, BillingMeter* meter,
          const SpotMarket* market = nullptr,
          CostCategory category = CostCategory::kVm);

  /// Updates the spot-request target. May start new VMs (after the startup
  /// delay) or cancel pending / terminate idle ones.
  void SetTarget(int64_t target);

  /// Attempts to take an idle READY VM for `tenant`; returns its id or
  /// nullopt. With no reservations configured every tenant draws from the
  /// shared pool exactly as before. With reservations, idle capacity that
  /// would be needed to honour *other* tenants' unused reservations is held
  /// back: a tenant can always use up to its own reservation, and anyone
  /// can use the shared surplus beyond the sum of unused reservations.
  std::optional<VmId> TryAcquire(int32_t tenant = 0);

  /// Shared-vs-dedicated fleet policy: dedicates `vms` of the fleet to
  /// `tenant` (0 removes the reservation). Reservations carve the idle pool
  /// into per-tenant headroom; they do not by themselves raise the target —
  /// the coordinator floors its target at reserved_total(). The default (no
  /// reservations) is a fully shared fleet, bit-identical to the previous
  /// behaviour.
  void SetTenantReservation(int32_t tenant, int64_t vms);
  /// Sum of all per-tenant reservations.
  int64_t reserved_total() const { return reserved_total_; }
  /// Acquisitions denied because the idle capacity was held back for other
  /// tenants' reservations.
  int64_t total_reservation_denials() const {
    return total_reservation_denials_;
  }

  /// Returns a BUSY VM to IDLE. If the fleet is above target, the VM may be
  /// terminated (subject to the minimum billing rule).
  void Release(VmId id);

  /// Registers a callback invoked every time a VM becomes READY. Used by the
  /// coordinator: a newly started VM announces itself and immediately
  /// accepts work.
  void SetOnVmReady(std::function<void(VmId)> cb) {
    on_vm_ready_ = std::move(cb);
  }

  /// Enables spot interruptions: each VM is reclaimed by the provider after
  /// an exponentially distributed lifetime with the given mean. A reclaimed
  /// BUSY VM triggers the interruption callback (the scheduler must retry
  /// its task — in Cackle, typically on the elastic pool); reclaimed idle
  /// VMs just terminate. Runtime until reclamation is billed normally.
  void EnableInterruptions(uint64_t seed, double mean_lifetime_hours);

  /// Called when a BUSY VM is reclaimed, before it is torn down.
  void SetOnVmInterrupted(std::function<void(VmId)> cb) {
    on_vm_interrupted_ = std::move(cb);
  }

  /// Attaches a fault injector: each launch may fail after the startup
  /// delay (a spot capacity error). Failed launches are not billed and a
  /// maintained target re-requests the capacity.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Force-reclaims one idle READY VM (injected node crash). Billing and
  /// replacement behave exactly like a provider interruption. Returns false
  /// when no idle VM exists.
  bool InterruptOneIdle();

  /// Force-reclaims up to `count` READY VMs — idle *and* busy — in
  /// ascending id order (a reclamation-storm burst; the provider does not
  /// care whether a VM is working). Busy victims fire the interruption
  /// callback so the scheduler can rescue their tasks. Returns how many
  /// VMs were actually reclaimed.
  int64_t InterruptN(int64_t count);

  /// Terminates every VM (end of workload) and flushes billing.
  void TerminateAll();

  /// Exports lifetime totals into a metrics registry under `prefix`
  /// (e.g. "vm_fleet"). Read-only; call at any point.
  void ExportMetrics(MetricsRegistry* metrics,
                     const std::string& prefix) const;

  int64_t target() const { return target_; }
  /// Started and not terminated (idle + busy).
  int64_t num_ready() const { return num_idle_ + num_busy_; }
  int64_t num_idle() const { return num_idle_; }
  int64_t num_busy() const { return num_busy_; }
  int64_t num_pending() const { return static_cast<int64_t>(pending_.size()); }
  /// Ready + pending: what the provider considers allocated.
  int64_t num_allocated() const { return num_ready() + num_pending(); }
  /// Whether VM `id` is READY (idle or busy): started and not terminated.
  bool IsReady(VmId id) const;

  int64_t total_vms_started() const { return total_started_; }
  int64_t total_vms_terminated() const { return total_terminated_; }
  int64_t total_vms_interrupted() const { return total_interrupted_; }
  int64_t total_launch_failures() const { return total_launch_failures_; }
  /// Total READY-to-termination milliseconds across terminated VMs.
  SimTimeMs total_runtime_ms() const { return total_runtime_ms_; }

 private:
  enum class VmState : uint8_t { kPending, kIdle, kBusy, kTerminated };

  /// vms_ keeps one of these for every VM ever requested (hundreds of
  /// thousands in a long chaos run); the field order packs it into 24 bytes.
  struct Vm {
    SimTimeMs ready_time = 0;
    uint64_t pending_event = 0;  // startup event id while kPending
    int32_t tenant = 0;          // tenant running on it while kBusy
    VmState state = VmState::kPending;
  };

  /// Whether `tenant` may take an idle VM under the reservation policy.
  bool TenantMayAcquire(int32_t tenant) const;

  void OnVmStarted(VmId id);
  void Terminate(VmId id);
  void Interrupt(VmId id);
  /// Bills the VM's runtime and marks it terminated (any non-pending state).
  void BillAndRetire(VmId id);
  /// Enforces target: cancels pending VMs, terminates eligible idle VMs,
  /// schedules deferred termination checks for idle VMs still inside their
  /// minimum billing window.
  void ReconcileDown();
  void DeferredTerminationCheck(VmId id);

  Simulation* sim_;
  const CostModel* cost_;
  BillingMeter* meter_;
  const SpotMarket* market_;
  CostCategory category_;

  std::vector<Vm> vms_;
  /// Ready index: bit `id` is set iff VM `id` is idle or busy (set when it
  /// starts, cleared when it is billed and retired), so a storm burst walks
  /// live VMs in ascending id without visiting retired ones.
  std::vector<uint64_t> ready_words_;
  /// No bit is set below this word (a lower bound, advanced lazily).
  size_t first_ready_word_ = 0;
  /// FIFO for deterministic acquisition order. Entries of VMs that left
  /// the idle state stay behind as stale entries; every consumer skips
  /// them.
  std::deque<VmId> idle_;
  std::deque<VmId> pending_;  // newest at the back; cancelled LIFO
  int64_t target_ = 0;
  int64_t num_idle_ = 0;
  int64_t num_busy_ = 0;
  int64_t total_started_ = 0;
  int64_t total_terminated_ = 0;
  int64_t total_interrupted_ = 0;
  int64_t total_launch_failures_ = 0;
  /// Shared-vs-dedicated policy state: per-tenant reservations and busy
  /// counts (busy counts are maintained only while reservations exist).
  std::map<int32_t, int64_t> reserved_;
  std::map<int32_t, int64_t> busy_by_tenant_;
  int64_t reserved_total_ = 0;
  int64_t total_reservation_denials_ = 0;
  FaultInjector* injector_ = nullptr;
  SimTimeMs total_runtime_ms_ = 0;
  std::function<void(VmId)> on_vm_ready_;
  std::function<void(VmId)> on_vm_interrupted_;
  // Spot interruption model (disabled when lifetime <= 0).
  double mean_lifetime_hours_ = 0.0;
  Rng interruption_rng_{0};

  SimTimeMs startup_ms() const;
  SimTimeMs min_billing_ms() const;
};

}  // namespace cackle

#endif  // CACKLE_CLOUD_VM_FLEET_H_
