#include "cloud/object_store.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metric_names.h"

namespace cackle {

Status ObjectStore::TryPut(const std::string& key, int64_t bytes) {
  CACKLE_CHECK_GE(bytes, 0);
  ++num_puts_;
  meter_->Charge(CostCategory::kObjectStorePut, cost_->object_store_put_cost);
  if (injector_ != nullptr && injector_->SampleStoreError(NowMs())) {
    return Status::IoError("transient object store PUT failure");
  }
  auto [it, inserted] = objects_.try_emplace(key, bytes);
  if (!inserted) {
    bytes_stored_ -= it->second;
    it->second = bytes;
  }
  bytes_stored_ += bytes;
  peak_bytes_stored_ = std::max(peak_bytes_stored_, bytes_stored_);
  return Status::OK();
}

StatusOr<int64_t> ObjectStore::TryGet(const std::string& key) {
  ++num_gets_;
  meter_->Charge(CostCategory::kObjectStoreGet, cost_->object_store_get_cost);
  if (injector_ != nullptr && injector_->SampleStoreError(NowMs())) {
    return Status::IoError("transient object store GET failure");
  }
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound("no such object: " + key);
  }
  return it->second;
}

void ObjectStore::EnableCircuitBreaker(const CircuitBreakerOptions& options) {
  if (options.failure_threshold <= 0) return;
  breaker_ = std::make_unique<CircuitBreaker>(options);
}

void ObjectStore::Retry(const std::function<Status()>& op,
                        const char* request) {
  // A breaker-rejected attempt is neither issued nor billed: the loop
  // fast-forwards its virtual clock to the cooldown expiry, where the
  // breaker half-opens and admits a probe.
  const int64_t start = NowMs();
  int64_t now = start;
  int attempt = 0;
  Status status;
  while (true) {
    if (breaker_ != nullptr && !breaker_->AllowRequest(now)) {
      now += std::max<int64_t>(1, breaker_->RetryAtMs() - now);
      continue;
    }
    ++attempt;
    status = op();
    if (status.ok()) {
      if (breaker_ != nullptr) breaker_->RecordSuccess(now);
      break;
    }
    if (breaker_ != nullptr) breaker_->RecordFailure(now);
    now += retry_policy_.BackoffMs(attempt);
    if (!retry_policy_.ShouldRetry(attempt, now - start)) break;
  }
  num_retries_ += attempt - 1;
  CACKLE_CHECK(status.ok()) << "object store " << request << " failed after "
                            << attempt << " attempts: " << status.ToString();
}

void ObjectStore::Put(const std::string& key, int64_t bytes) {
  Retry([&] { return TryPut(key, bytes); }, "PUT");
}

std::optional<int64_t> ObjectStore::Get(const std::string& key) {
  std::optional<int64_t> result;
  const auto op = [&]() -> Status {
    StatusOr<int64_t> got = TryGet(key);
    if (got.ok()) {
      result = got.value();
      return Status::OK();
    }
    // A 404 is a definitive answer, not a transient error; billed but
    // not retried.
    if (got.status().code() == StatusCode::kNotFound) return Status::OK();
    return got.status();
  };
  Retry(op, "GET");
  return result;
}

bool ObjectStore::Delete(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return false;
  bytes_stored_ -= it->second;
  objects_.erase(it);
  return true;
}

void ObjectStore::ExportMetrics(MetricsRegistry* metrics,
                                const std::string& prefix) const {
  namespace mn = metric_names;
  metrics->SetCounter(prefix + mn::kSuffixPuts, num_puts_);
  metrics->SetCounter(prefix + mn::kSuffixGets, num_gets_);
  metrics->SetCounter(prefix + mn::kSuffixRetries, num_retries_);
  metrics->SetCounter(prefix + mn::kSuffixObjects, num_objects());
  metrics->SetGauge(prefix + mn::kSuffixBytesStored,
                    static_cast<double>(bytes_stored_));
  metrics->SetGauge(prefix + mn::kSuffixPeakBytesStored,
                    static_cast<double>(peak_bytes_stored_));
  // Breaker metrics only exist when a breaker is configured, keeping the
  // fault-free registry (and its serialized snapshots) unchanged.
  if (breaker_ != nullptr) {
    metrics->SetCounter(prefix + mn::kSuffixCircuitOpen, breaker_->trips());
    metrics->SetCounter(prefix + mn::kSuffixCircuitRejections,
                        breaker_->rejections());
    metrics->SetCounter(prefix + mn::kSuffixCircuitHalfOpens,
                        breaker_->half_opens());
  }
}

}  // namespace cackle
