#include "strategy/workload_history.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cackle {

const std::vector<int64_t>& WorkloadHistory::DefaultLookbacks() {
  static const std::vector<int64_t>* lookbacks =
      new std::vector<int64_t>{10, 60, 300, 900, 1800, 3600};
  return *lookbacks;
}

WorkloadHistory::WorkloadHistory(std::vector<int64_t> lookbacks)
    : lookbacks_(std::move(lookbacks)) {
  CACKLE_CHECK(!lookbacks_.empty());
  std::sort(lookbacks_.begin(), lookbacks_.end());
  for (int64_t lb : lookbacks_) {
    CACKLE_CHECK_GT(lb, 0);
    windows_.push_back(Window{lb, 0, false, {}});
  }
  max_demand_ = std::numeric_limits<int64_t>::max() / lookbacks_.back();
}

void SlideSortedWindow(std::vector<int64_t>* sorted, int64_t added, bool full,
                       int64_t evicted) {
  std::vector<int64_t>& s = *sorted;
  if (!full) {
    s.insert(std::upper_bound(s.begin(), s.end(), added), added);
    return;
  }
  const auto pos = std::lower_bound(s.begin(), s.end(), evicted);
  if (added > evicted) {
    const auto end = std::lower_bound(pos + 1, s.end(), added);
    std::move(pos + 1, end, pos);
    *(end - 1) = added;
  } else if (added < evicted) {
    const auto begin = std::upper_bound(s.begin(), pos, added);
    std::move_backward(begin, pos, pos + 1);
    *begin = added;
  }
}

void WorkloadHistory::Append(int64_t demand) {
  CACKLE_CHECK_GE(demand, 0);
  CACKLE_CHECK_LE(demand, max_demand_)
      << "demand would overflow a " << lookbacks_.back() << " s window sum";
  history_.push_back(demand);
  const int64_t now = size();  // number of samples after append
  for (Window& w : windows_) {
    // Both samples are in [0, max_demand_], so neither the difference nor
    // the resulting sum of lookback_s samples can overflow.
    const bool full = now > w.lookback_s;
    const int64_t evicted =
        full ? history_[static_cast<size_t>(now - w.lookback_s - 1)] : 0;
    w.sum += demand - evicted;
    if (w.sorted_live) SlideSortedWindow(&w.sorted, demand, full, evicted);
  }
}

const WorkloadHistory::Window& WorkloadHistory::FindWindow(
    int64_t lookback_s) const {
  for (const Window& w : windows_) {
    if (w.lookback_s == lookback_s) return w;
  }
  CACKLE_CHECK(false) << "lookback " << lookback_s << " not registered";
  __builtin_unreachable();
}

const std::vector<int64_t>& WorkloadHistory::SortedWindow(
    int64_t lookback_s) const {
  const Window& w = FindWindow(lookback_s);
  if (!w.sorted_live) {
    const int64_t n = std::min<int64_t>(size(), lookback_s);
    w.sorted.assign(history_.end() - n, history_.end());
    std::sort(w.sorted.begin(), w.sorted.end());
    w.sorted_live = true;
  }
  return w.sorted;
}

int64_t WorkloadHistory::Percentile(int64_t lookback_s, double p) const {
  CACKLE_CHECK_GT(p, 0.0);
  CACKLE_CHECK_LE(p, 100.0);
  return SortedPercentile(SortedWindow(lookback_s), p);
}

double WorkloadHistory::Mean(int64_t lookback_s) const {
  CACKLE_CHECK_GT(lookback_s, 0);
  for (const Window& w : windows_) {
    if (w.lookback_s == lookback_s) {
      const int64_t n = std::min<int64_t>(size(), lookback_s);
      return n == 0 ? 0.0
                    : static_cast<double>(w.sum) / static_cast<double>(n);
    }
  }
  // Unregistered lookback: compute from the raw history. Append bounds each
  // sample by INT64_MAX / (longest registered lookback) only, so a longer
  // window can exceed int64; the 128-bit sum cannot, and converts to the
  // same double wherever the int64 sum would not have overflowed.
  const int64_t n = std::min<int64_t>(size(), lookback_s);
  if (n == 0) return 0.0;
  __int128 sum = 0;
  for (int64_t i = size() - n; i < size(); ++i) {
    sum += history_[static_cast<size_t>(i)];
  }
  return static_cast<double>(sum) / static_cast<double>(n);
}

int64_t WorkloadHistory::Max(int64_t lookback_s) const {
  const std::vector<int64_t>& s = SortedWindow(lookback_s);
  return s.empty() ? 0 : s.back();
}

}  // namespace cackle
