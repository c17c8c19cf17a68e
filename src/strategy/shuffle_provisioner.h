#ifndef CACKLE_STRATEGY_SHUFFLE_PROVISIONER_H_
#define CACKLE_STRATEGY_SHUFFLE_PROVISIONER_H_

#include <cstdint>
#include <deque>

#include "cloud/cost_model.h"

namespace cackle {

/// \brief Provisioning policy for the shuffling layer (Section 5.6).
///
/// Because per-request cloud-storage pricing dwarfs shuffle-node rental for
/// busy workloads, the shuffle layer is deliberately over-provisioned
/// instead of cost-optimized: the target is enough node memory to hold the
/// maximum intermediate state observed over the trailing 20 minutes, with a
/// floor of 16 GB so some shuffle nodes always exist to absorb requests.
class ShuffleProvisioner {
 public:
  /// The trailing window and the memory floor.
  static constexpr int64_t kLookbackS = 20 * 60;
  static constexpr int64_t kFloorBytes = 16LL << 30;

  explicit ShuffleProvisioner(const CostModel* cost) : cost_(cost) {}

  /// Feeds one second of observed resident intermediate-state bytes and
  /// returns the target shuffle-node count.
  int64_t Step(int64_t resident_bytes);

 private:
  const CostModel* cost_;
  /// Monotonic deque of (second, bytes) for O(1) sliding-window max.
  std::deque<std::pair<int64_t, int64_t>> window_max_;
  int64_t now_s_ = 0;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_SHUFFLE_PROVISIONER_H_
