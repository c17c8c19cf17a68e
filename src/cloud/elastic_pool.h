#ifndef CACKLE_CLOUD_ELASTIC_POOL_H_
#define CACKLE_CLOUD_ELASTIC_POOL_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "cloud/billing.h"
#include "cloud/cost_model.h"
#include "cloud/fault_injector.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "sim/simulation.h"

namespace cackle {

using ElasticSlotId = int64_t;

/// \brief An AWS-Lambda-like elastic pool of compute inside the simulation.
///
/// The two properties the paper requires of an elastic pool (Section 2.2):
///  1. Immediate availability — requests are granted after a sub-second
///     startup latency (the paper measures 99% of Lambdas within 200 ms).
///  2. Fine-grained usage — slots are billed per millisecond from grant to
///     release with no minimum.
/// Capacity is unbounded by default; the premium relative to VMs lives in
/// CostModel. A FaultInjector can impose a Lambda-style account concurrency
/// limit, in which case requests above the limit are throttled (rejected at
/// request time) and the caller must back off and retry.
class CACKLE_THREAD_CONFINED(
    "slot state mutates only from simulation callbacks on the owning "
    "thread")
ElasticPool {
 public:
  ElasticPool(Simulation* sim, const CostModel* cost, BillingMeter* meter,
              Rng rng);

  /// Attaches a fault injector whose profile may impose a concurrency limit.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Requests a slot; `granted` runs after the sampled startup latency with
  /// the slot id. The caller must eventually Release() the slot. Returns
  /// ResourceExhausted (and does not run `granted`) when the request is
  /// throttled by the concurrency limit.
  [[nodiscard]] Status TryAcquire(std::function<void(ElasticSlotId)> granted);

  /// Like TryAcquire but aborts on throttling; for callers that have not
  /// configured a concurrency limit.
  void Acquire(std::function<void(ElasticSlotId)> granted);

  /// Ends a slot's billing period.
  void Release(ElasticSlotId id);

  /// Convenience: acquire, hold for `duration_ms` after grant, release, then
  /// invoke `done` (may be null).
  void Invoke(SimTimeMs duration_ms, std::function<void()> done);

  int64_t num_active() const { return num_active_; }
  int64_t peak_active() const { return peak_active_; }
  int64_t total_invocations() const { return total_invocations_; }
  int64_t total_throttled() const { return total_throttled_; }
  SimTimeMs total_billed_ms() const { return total_billed_ms_; }

  /// Samples the invocation startup latency (exposed for tests).
  SimTimeMs SampleStartupLatency();

  /// Exports lifetime totals into a metrics registry under `prefix`.
  void ExportMetrics(MetricsRegistry* metrics,
                     const std::string& prefix) const;

 private:
  Simulation* sim_;
  const CostModel* cost_;
  BillingMeter* meter_;
  Rng rng_;
  FaultInjector* injector_ = nullptr;

  std::unordered_map<ElasticSlotId, SimTimeMs> active_;  // id -> grant time
  ElasticSlotId next_id_ = 0;
  int64_t num_active_ = 0;
  /// Requests granted admission but still inside their startup latency;
  /// counted against the concurrency limit.
  int64_t num_starting_ = 0;
  int64_t peak_active_ = 0;
  int64_t total_invocations_ = 0;
  int64_t total_throttled_ = 0;
  SimTimeMs total_billed_ms_ = 0;
};

}  // namespace cackle

#endif  // CACKLE_CLOUD_ELASTIC_POOL_H_
