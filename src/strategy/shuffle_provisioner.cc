#include "strategy/shuffle_provisioner.h"

#include <algorithm>

#include "common/logging.h"

namespace cackle {

int64_t ShuffleProvisioner::Step(int64_t resident_bytes) {
  CACKLE_CHECK_GE(resident_bytes, 0);
  // Maintain a monotonically decreasing deque for the sliding-window max.
  while (!window_max_.empty() && window_max_.back().second <= resident_bytes) {
    window_max_.pop_back();
  }
  window_max_.emplace_back(now_s_, resident_bytes);
  while (window_max_.front().first <= now_s_ - kLookbackS) {
    window_max_.pop_front();
  }
  ++now_s_;
  const int64_t needed_bytes =
      std::max(window_max_.front().second, kFloorBytes);
  const int64_t node_bytes = cost_->shuffle_node_memory_bytes;
  return (needed_bytes + node_bytes - 1) / node_bytes;
}

}  // namespace cackle
