#ifndef CACKLE_CLOUD_COST_MODEL_H_
#define CACKLE_CLOUD_COST_MODEL_H_

#include <cstdint>

#include "sim/simulation.h"

namespace cackle {

/// \brief Prices and billing rules of the (simulated) cloud provider.
///
/// Defaults reproduce Table 1 of the paper and the AWS constants quoted in
/// Sections 2.2, 5.1 and 7.1: a 2-vCPU spot VM at $0.03/hour with a 3-minute
/// startup latency and 1-minute minimum billing, an elastic pool slot (AWS
/// Lambda, 3 GB) at $0.18/hour billed per millisecond, S3 request pricing,
/// and c5.xlarge-class shuffle nodes at $0.08/hour.
///
/// Everything is sweepable; the environment-change experiments (Figures 8
/// and 9) vary `elastic_cost_per_hour` and `vm_startup_ms`.
struct CostModel {
  // --- Execution layer: provisioned VMs (2 vCPUs, >= 4 GB) ---
  double vm_cost_per_hour = 0.03;
  SimTimeMs vm_startup_ms = 3 * kMillisPerMinute;
  SimTimeMs vm_min_billing_ms = 1 * kMillisPerMinute;
  /// VMs are billed per second (AWS Linux spot behaviour).
  SimTimeMs vm_billing_granularity_ms = kMillisPerSecond;

  // --- Execution layer: elastic pool (cloud functions, 2-vCPU-equivalent) ---
  double elastic_cost_per_hour = 0.18;
  /// Milliseconds-granularity billing, no minimum.
  SimTimeMs elastic_billing_granularity_ms = 1;
  /// Typical time between invoking a function and it running; the paper
  /// measures 99% of Lambdas starting within 200 ms.
  SimTimeMs elastic_startup_typical_ms = 100;
  SimTimeMs elastic_startup_tail_ms = 200;

  // --- Shuffling layer ---
  /// Provisioned shuffle node: 4 vCPUs, 8 GB DRAM (c5.xlarge-class).
  double shuffle_node_cost_per_hour = 0.08;
  int64_t shuffle_node_memory_bytes = 8LL * 1024 * 1024 * 1024;
  SimTimeMs shuffle_node_startup_ms = 3 * kMillisPerMinute;
  SimTimeMs shuffle_node_min_billing_ms = 1 * kMillisPerMinute;

  // --- Cloud object storage (S3-like), the shuffle layer's elastic pool ---
  /// $0.005 per 1000 PUT requests.
  double object_store_put_cost = 0.000005;
  /// $0.0004 per 1000 GET requests.
  double object_store_get_cost = 0.0000004;

  // --- Coordinator ---
  /// Single on-demand c5a.xlarge.
  double coordinator_cost_per_hour = 0.154;

  /// Cost premium of the elastic pool relative to a VM (the paper's
  /// measured default is 6x).
  double ElasticPremium() const {
    return elastic_cost_per_hour / vm_cost_per_hour;
  }

  /// Dollars for one VM billed for `ms` of runtime, applying the minimum
  /// billing time and per-second rounding.
  double VmCost(SimTimeMs ms) const {
    if (ms < vm_min_billing_ms) ms = vm_min_billing_ms;
    const SimTimeMs g = vm_billing_granularity_ms;
    const SimTimeMs rounded = (ms + g - 1) / g * g;
    return vm_cost_per_hour * static_cast<double>(rounded) /
           static_cast<double>(kMillisPerHour);
  }

  /// Dollars for one elastic-pool slot held for `ms` (no minimum,
  /// millisecond granularity).
  double ElasticCost(SimTimeMs ms) const {
    const SimTimeMs g = elastic_billing_granularity_ms;
    const SimTimeMs rounded = (ms + g - 1) / g * g;
    return elastic_cost_per_hour * static_cast<double>(rounded) /
           static_cast<double>(kMillisPerHour);
  }

  /// Dollars for one shuffle node billed for `ms`.
  double ShuffleNodeCost(SimTimeMs ms) const {
    if (ms < shuffle_node_min_billing_ms) ms = shuffle_node_min_billing_ms;
    return shuffle_node_cost_per_hour * static_cast<double>(ms) /
           static_cast<double>(kMillisPerHour);
  }

  friend bool operator==(const CostModel&, const CostModel&) = default;

  /// Per-second VM price (convenience for second-granularity accounting).
  double VmCostPerSecond() const { return vm_cost_per_hour / 3600.0; }
  double ElasticCostPerSecond() const { return elastic_cost_per_hour / 3600.0; }
};

}  // namespace cackle

#endif  // CACKLE_CLOUD_COST_MODEL_H_
