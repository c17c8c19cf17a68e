#ifndef CACKLE_COMMON_RETRY_POLICY_H_
#define CACKLE_COMMON_RETRY_POLICY_H_

#include <cstdint>

#include "common/rng.h"

namespace cackle {

/// \brief Tunables of a retry loop: exponential backoff with deterministic
/// jitter, bounded attempts, and an elapsed-time budget.
struct RetryPolicyOptions {
  /// Total attempts allowed (first try included); 0 = unlimited.
  int max_attempts = 5;
  /// Backoff before the second attempt; doubles after each further
  /// failure, capped at RetryPolicy::kMaxBackoffMs.
  int64_t initial_backoff_ms = 100;
  /// Uniform jitter of +/- this fraction applied to each backoff, drawn
  /// from the policy's Rng so sequences are reproducible. 0 disables.
  double jitter = 0.25;
  /// Cumulative max-elapsed budget; 0 = none. It caps whatever elapsed time
  /// the caller reports to `ShouldRetry` — wall time in simulation for the
  /// engine's elastic placement loop, so an operation stuck behind a
  /// throttle eventually yields instead of backing off forever.
  int64_t max_elapsed_ms = 0;
};

/// \brief Backoff ladder and stop rule of a retry loop. The caller owns the
/// loop and its clock: the engine schedules backoffs in simulated time, the
/// object store (no modelled latency) adds them to a virtual clock.
///
/// A null Rng (or zero jitter) makes the policy consume no randomness, so a
/// fault-free configuration stays bit-identical with or without it.
class RetryPolicy {
 public:
  /// Growth of the backoff per failure, and its hard cap.
  static constexpr double kMultiplier = 2.0;
  static constexpr int64_t kMaxBackoffMs = 10'000;

  explicit RetryPolicy(RetryPolicyOptions options, Rng* rng = nullptr);

  /// Backoff to wait after the `attempt`-th failure (1-based), jittered.
  int64_t BackoffMs(int attempt);

  /// Whether a further attempt is allowed after `attempt` failures with
  /// `elapsed_ms` already spent waiting.
  bool ShouldRetry(int attempt, int64_t elapsed_ms) const;

 private:
  RetryPolicyOptions options_;
  Rng* rng_;
};

}  // namespace cackle

#endif  // CACKLE_COMMON_RETRY_POLICY_H_
