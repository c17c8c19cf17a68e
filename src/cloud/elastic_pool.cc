#include "cloud/elastic_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metric_names.h"

namespace cackle {

ElasticPool::ElasticPool(Simulation* sim, const CostModel* cost,
                         BillingMeter* meter, Rng rng)
    : sim_(sim), cost_(cost), meter_(meter), rng_(rng) {}

SimTimeMs ElasticPool::SampleStartupLatency() {
  // 99% of invocations start within the tail bound (uniform between half the
  // typical latency and the tail); 1% straggle up to 5x the tail.
  const SimTimeMs typical = cost_->elastic_startup_typical_ms;
  const SimTimeMs tail = cost_->elastic_startup_tail_ms;
  if (rng_.NextBernoulli(0.99)) {
    return rng_.NextInt(std::max<SimTimeMs>(1, typical / 2),
                        std::max<SimTimeMs>(1, tail));
  }
  return rng_.NextInt(tail, 5 * std::max<SimTimeMs>(1, tail));
}

Status ElasticPool::TryAcquire(std::function<void(ElasticSlotId)> granted) {
  // Lambda-style throttling: admission is decided at request time against
  // everything the provider considers in flight (running + starting).
  const int64_t limit =
      injector_ != nullptr ? injector_->profile().elastic_concurrency_limit : 0;
  if (limit > 0 && num_active_ + num_starting_ >= limit) {
    ++total_throttled_;
    return Status::ResourceExhausted("elastic pool concurrency limit");
  }
  ++num_starting_;
  const SimTimeMs latency = SampleStartupLatency();
  sim_->ScheduleAfter(latency, [this, granted = std::move(granted)] {
    const ElasticSlotId id = next_id_++;
    active_.emplace(id, sim_->NowMs());
    --num_starting_;
    ++num_active_;
    ++total_invocations_;
    peak_active_ = std::max(peak_active_, num_active_);
    granted(id);
  });
  return Status::OK();
}

void ElasticPool::Acquire(std::function<void(ElasticSlotId)> granted) {
  const Status status = TryAcquire(std::move(granted));
  CACKLE_CHECK(status.ok()) << "Acquire throttled: " << status.ToString();
}

void ElasticPool::Release(ElasticSlotId id) {
  auto it = active_.find(id);
  CACKLE_CHECK(it != active_.end()) << "release of unknown elastic slot";
  const SimTimeMs held = sim_->NowMs() - it->second;
  active_.erase(it);
  --num_active_;
  total_billed_ms_ += held;
  meter_->Charge(CostCategory::kElasticPool, cost_->ElasticCost(held));
}

void ElasticPool::ExportMetrics(MetricsRegistry* metrics,
                                const std::string& prefix) const {
  namespace mn = metric_names;
  metrics->SetCounter(prefix + mn::kSuffixInvocations, total_invocations_);
  metrics->SetCounter(prefix + mn::kSuffixThrottled, total_throttled_);
  metrics->SetCounter(prefix + mn::kSuffixBilledMs, total_billed_ms_);
  metrics->SetGauge(prefix + mn::kSuffixPeakActive,
                    static_cast<double>(peak_active_));
}

void ElasticPool::Invoke(SimTimeMs duration_ms, std::function<void()> done) {
  Acquire([this, duration_ms, done = std::move(done)](ElasticSlotId id) {
    sim_->ScheduleAfter(duration_ms, [this, id, done] {
      Release(id);
      if (done) done();
    });
  });
}

}  // namespace cackle
