#ifndef CACKLE_WORKLOAD_WORKLOAD_GENERATOR_H_
#define CACKLE_WORKLOAD_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"
#include "workload/profile_library.h"

namespace cackle {

/// Tenant identifier. Tenants are dense small integers in [0, num_tenants);
/// single-tenant workloads use tenant 0 everywhere.
using TenantId = int32_t;

/// \brief One query arrival in a generated workload.
struct QueryArrival {
  SimTimeMs arrival_ms = 0;
  /// Index into the ProfileLibrary used to generate the workload.
  size_t profile_index = 0;
  /// The tenant this query belongs to (0 in single-tenant workloads).
  TenantId tenant = 0;
  /// Batch queries (Section 2.1) tolerate delay: the engine queues their
  /// tasks for idle provisioned VMs instead of bursting to the elastic
  /// pool. Interactive queries (the default) never queue.
  bool batch = false;
};

/// \brief Options for workload generation (defaults = Table 1 of the paper).
///
/// Queries arrive in a fixed window. A `baseline_load` fraction arrives
/// uniformly at random over the window; the remainder arrive according to a
/// sine-shaped density with period `arrival_period_ms`, matching the
/// cyclical-plus-bursty shape of the real-world traces in Section 2.
struct WorkloadOptions {
  int64_t num_queries = 16384;
  SimTimeMs duration_ms = 12 * kMillisPerHour;
  double baseline_load = 0.30;
  SimTimeMs arrival_period_ms = 3 * kMillisPerHour;
  /// Fraction of queries marked as delay-tolerant batch work (Section 2.1's
  /// query classes). 0 = all interactive, matching the paper's evaluation.
  double batch_fraction = 0.0;
  /// Number of tenants sharing the workload. Queries are assigned tenants
  /// from a *separate* RNG stream, so any num_tenants produces the same
  /// arrival times / profiles / batch flags as the single-tenant workload
  /// with the same seed — only the tenant column differs. 1 = everything
  /// belongs to tenant 0 and no tenant randomness is drawn at all.
  int64_t num_tenants = 1;
  /// Tenant-size skew: queries pick a tenant Zipf-distributed with this
  /// exponent (tenant 0 is the heaviest). 0 = uniform tenants. Mixed tenant
  /// sizes are the realistic multi-tenant shape — a few large tenants and a
  /// long tail of small ones.
  double tenant_skew = 1.0;
  uint64_t seed = 42;
};

/// \brief Generates query workloads from a profile library.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const ProfileLibrary* library)
      : library_(library) {}

  /// Generates arrivals sorted by time. Each query uniformly picks a profile
  /// from the library (the paper selects uniformly from the query set and
  /// the scale factors).
  std::vector<QueryArrival> Generate(const WorkloadOptions& options) const;

 private:
  const ProfileLibrary* library_;
};

/// \brief Samples one arrival time in [0, duration) from the mixture of a
/// uniform (with weight `baseline_load`) and a sine-shaped density with the
/// given period. Exposed for tests.
SimTimeMs SampleArrivalTime(const WorkloadOptions& options, Rng* rng);

/// \brief Schedules a workload's arrivals on `sim` as one sorted stream:
/// `on_arrival(q)` runs at `arrivals[q].arrival_ms`. The arrivals may come
/// in any order; they run exactly as one ScheduleAt per arrival, in index
/// order, made at this point would run them (equal-time arrivals in index
/// order). This is the one way a workload's arrival schedule enters a
/// simulation.
void ScheduleArrivals(const std::vector<QueryArrival>& arrivals,
                      Simulation* sim,
                      Simulation::StreamHandler on_arrival);

}  // namespace cackle

#endif  // CACKLE_WORKLOAD_WORKLOAD_GENERATOR_H_
