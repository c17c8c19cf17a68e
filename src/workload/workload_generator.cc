#include "workload/workload_generator.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace cackle {

namespace {
// Tenant assignment draws from its own named sub-stream of the workload
// seed so the arrival schedule stays bit-identical to the single-tenant
// workload (tag value unchanged from the historical XOR constant).
constexpr uint64_t kTenantStreamTag = 0x7e4a47ULL;
}  // namespace

SimTimeMs SampleArrivalTime(const WorkloadOptions& options, Rng* rng) {
  CACKLE_CHECK_GT(options.duration_ms, 0);
  if (rng->NextBernoulli(options.baseline_load)) {
    return rng->NextInt(0, options.duration_ms - 1);
  }
  // Sine-shaped density: f(t) proportional to 1 + sin(2*pi*t/P), sampled by
  // rejection against the uniform envelope (max density 2).
  const double period = static_cast<double>(options.arrival_period_ms);
  for (;;) {
    const SimTimeMs t = rng->NextInt(0, options.duration_ms - 1);
    const double density =
        1.0 + std::sin(2.0 * M_PI * static_cast<double>(t) / period);
    if (rng->NextDouble() * 2.0 < density) return t;
  }
}

std::vector<QueryArrival> WorkloadGenerator::Generate(
    const WorkloadOptions& options) const {
  CACKLE_CHECK_GT(library_->size(), 0u);
  CACKLE_CHECK_GE(options.num_tenants, 1);
  CACKLE_CHECK_GE(options.num_queries, 0)
      << "num_queries must be >= 0, got " << options.num_queries;
  CACKLE_CHECK_GT(options.duration_ms, 0)
      << "duration_ms must be > 0, got " << options.duration_ms;
  // A zero period makes the sine density NaN, so rejection sampling of the
  // periodic share would never accept.
  CACKLE_CHECK(options.arrival_period_ms > 0 || options.baseline_load >= 1.0)
      << "arrival_period_ms must be > 0 while baseline_load < 1, got "
      << options.arrival_period_ms;
  Rng rng(options.seed);
  std::vector<QueryArrival> arrivals;
  arrivals.reserve(static_cast<size_t>(options.num_queries));
  for (int64_t i = 0; i < options.num_queries; ++i) {
    QueryArrival qa;
    qa.arrival_ms = SampleArrivalTime(options, &rng);
    qa.profile_index =
        static_cast<size_t>(rng.NextBounded(library_->size()));
    qa.batch = rng.NextBernoulli(options.batch_fraction);
    arrivals.push_back(qa);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const QueryArrival& a, const QueryArrival& b) {
              if (a.arrival_ms != b.arrival_ms) {
                return a.arrival_ms < b.arrival_ms;
              }
              return a.profile_index < b.profile_index;
            });
  if (options.num_tenants > 1) {
    // Tenant assignment draws from its own stream (and happens after the
    // sort), so the arrival schedule is bit-identical to the single-tenant
    // workload with the same seed — the tenant column is an overlay.
    Rng tenant_rng = Rng::Stream(options.seed, kTenantStreamTag);
    // Zipf CDF over [0, num_tenants): weight(t) = (t+1)^-skew.
    std::vector<double> cdf(static_cast<size_t>(options.num_tenants));
    double sum = 0.0;
    for (int64_t t = 0; t < options.num_tenants; ++t) {
      sum += options.tenant_skew == 0.0
                 ? 1.0
                 : std::pow(static_cast<double>(t + 1),
                            -options.tenant_skew);
      cdf[static_cast<size_t>(t)] = sum;
    }
    for (QueryArrival& qa : arrivals) {
      const double u = tenant_rng.NextDouble() * sum;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      qa.tenant = static_cast<TenantId>(
          std::min<int64_t>(it - cdf.begin(), options.num_tenants - 1));
    }
  }
  return arrivals;
}

void ScheduleArrivals(const std::vector<QueryArrival>& arrivals,
                      Simulation* sim,
                      Simulation::StreamHandler on_arrival) {
  std::vector<Simulation::StreamEntry> stream(arrivals.size());
  for (size_t q = 0; q < arrivals.size(); ++q) {
    stream[q] = {arrivals[q].arrival_ms, static_cast<int64_t>(q)};
  }
  // Stable: equal-time arrivals keep index order, which is the order their
  // per-arrival sequence numbers would have given them.
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Simulation::StreamEntry& a,
                      const Simulation::StreamEntry& b) {
                     return a.when < b.when;
                   });
  sim->ScheduleStream(std::move(stream), std::move(on_arrival));
}

}  // namespace cackle
