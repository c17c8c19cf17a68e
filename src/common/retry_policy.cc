#include "common/retry_policy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cackle {

RetryPolicy::RetryPolicy(RetryPolicyOptions options, Rng* rng)
    : options_(options), rng_(rng) {
  CACKLE_CHECK_GE(options_.max_attempts, 0);
  CACKLE_CHECK_GT(options_.initial_backoff_ms, 0);
  CACKLE_CHECK_LE(options_.initial_backoff_ms, kMaxBackoffMs);
  CACKLE_CHECK_GE(options_.jitter, 0.0);
  CACKLE_CHECK_LT(options_.jitter, 1.0);
  CACKLE_CHECK_GE(options_.max_elapsed_ms, 0);
}

int64_t RetryPolicy::BackoffMs(int attempt) {
  CACKLE_CHECK_GE(attempt, 1);
  double backoff = static_cast<double>(options_.initial_backoff_ms) *
                   std::pow(kMultiplier, attempt - 1);
  backoff = std::min(backoff, static_cast<double>(kMaxBackoffMs));
  if (rng_ != nullptr && options_.jitter > 0.0) {
    backoff *= rng_->NextDouble(1.0 - options_.jitter, 1.0 + options_.jitter);
    // The cap is a hard bound, not a pre-jitter nominal value: positive
    // jitter must never push a backoff past kMaxBackoffMs.
    backoff = std::min(backoff, static_cast<double>(kMaxBackoffMs));
  }
  return std::max<int64_t>(1, static_cast<int64_t>(backoff));
}

bool RetryPolicy::ShouldRetry(int attempt, int64_t elapsed_ms) const {
  if (options_.max_attempts > 0 && attempt >= options_.max_attempts) {
    return false;
  }
  return options_.max_elapsed_ms == 0 || elapsed_ms < options_.max_elapsed_ms;
}

}  // namespace cackle
