#ifndef CACKLE_CLOUD_OBJECT_STORE_H_
#define CACKLE_CLOUD_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "cloud/billing.h"
#include "cloud/cost_model.h"
#include "cloud/fault_injector.h"
#include "common/circuit_breaker.h"
#include "common/metrics.h"
#include "common/retry_policy.h"
#include "common/status.h"
#include "sim/simulation.h"

namespace cackle {

/// \brief An S3-like cloud object store billed per request.
///
/// Serves as the elastic pool of the shuffle layer (Section 3 / 7.1.3 of the
/// paper): unbounded capacity, every PUT and GET charged individually. The
/// simulation only needs object sizes, not payloads, so values are byte
/// counts. Deletes are free (matching S3) and are issued when intermediate
/// shuffle state is garbage-collected after a query finishes.
///
/// A FaultInjector can make requests fail transiently. Failed requests are
/// still billed (S3 charges for errored and 404 requests alike). TryPut /
/// TryGet surface the error as a Status; the infallible Put / Get wrappers
/// retry under the store's RetryPolicy — the store has no modelled latency,
/// so backoff is virtual — and count retries in num_retries().
class ObjectStore {
 public:
  ObjectStore(const CostModel* cost, BillingMeter* meter)
      : cost_(cost), meter_(meter) {}

  /// Attaches a fault injector providing the transient-error rate.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Attaches the simulation clock so time-dependent fault processes
  /// (brownout windows) and the circuit breaker see simulated time. Without
  /// it requests are sampled at time 0, which is only correct for tests
  /// that never enable a timeline.
  void SetSimulation(const Simulation* sim) { sim_ = sim; }

  /// Enables a circuit breaker on the retrying Put/Get wrappers. While the
  /// breaker is open, attempts are rejected without being issued or billed;
  /// the retry loop waits out the cooldown in virtual time and probes again
  /// when the breaker half-opens. A zero failure_threshold is a no-op.
  void EnableCircuitBreaker(const CircuitBreakerOptions& options);

  /// Non-null once EnableCircuitBreaker has been called with a nonzero
  /// threshold.
  const CircuitBreaker* circuit_breaker() const { return breaker_.get(); }

  /// Single attempt to store (or overwrite) an object of `bytes` bytes.
  /// Bills one PUT even on injected failure.
  [[nodiscard]] Status TryPut(const std::string& key, int64_t bytes);

  /// Single attempt to fetch an object's size. Bills one GET even on
  /// injected failure or 404 (S3 charges for 404s). NotFound when absent.
  [[nodiscard]] StatusOr<int64_t> TryGet(const std::string& key);

  /// Stores (or overwrites) an object, retrying transient errors. Every
  /// attempt bills one PUT.
  void Put(const std::string& key, int64_t bytes);

  /// Returns the object's size, retrying transient errors; nullopt (still
  /// billed) when absent. Every attempt bills one GET.
  std::optional<int64_t> Get(const std::string& key);

  /// Removes an object; free of charge (S3 deletes are free, and failed
  /// deletes are indistinguishable from missing keys). Returns whether it
  /// existed.
  bool Delete(const std::string& key);

  bool Contains(const std::string& key) const {
    return objects_.count(key) > 0;
  }

  int64_t num_puts() const { return num_puts_; }
  int64_t num_gets() const { return num_gets_; }
  /// Attempts beyond the first across all retried Put/Get calls.
  int64_t num_retries() const { return num_retries_; }
  int64_t num_objects() const { return static_cast<int64_t>(objects_.size()); }
  int64_t bytes_stored() const { return bytes_stored_; }
  int64_t peak_bytes_stored() const { return peak_bytes_stored_; }

  /// Exports lifetime totals into a metrics registry under `prefix`.
  void ExportMetrics(MetricsRegistry* metrics,
                     const std::string& prefix) const;

 private:
  /// The retry loop of Put and Get: runs `op` until it succeeds, backing
  /// off on a virtual clock that starts at the simulated now, and counts
  /// the retries. With a breaker, each attempt first passes its gate.
  /// CHECK-fails if the policy gives up on the `request`.
  void Retry(const std::function<Status()>& op, const char* request);

  SimTimeMs NowMs() const { return sim_ != nullptr ? sim_->NowMs() : 0; }

  const CostModel* cost_;
  BillingMeter* meter_;
  FaultInjector* injector_ = nullptr;
  const Simulation* sim_ = nullptr;
  std::unique_ptr<CircuitBreaker> breaker_;
  // Generous attempt bound: transient errors at the clamped maximum rate
  // (0.95) still end with overwhelming probability, and the simulation must
  // not lose writes. No jitter: the store has no clock, so jitter would
  // only burn randomness.
  RetryPolicy retry_policy_{{/*max_attempts=*/100, /*initial_backoff_ms=*/100,
                             /*jitter=*/0.0}};
  std::unordered_map<std::string, int64_t> objects_;
  int64_t num_puts_ = 0;
  int64_t num_gets_ = 0;
  int64_t num_retries_ = 0;
  int64_t bytes_stored_ = 0;
  int64_t peak_bytes_stored_ = 0;
};

}  // namespace cackle

#endif  // CACKLE_CLOUD_OBJECT_STORE_H_
