#ifndef CACKLE_STRATEGY_WORKLOAD_HISTORY_H_
#define CACKLE_STRATEGY_WORKLOAD_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cackle {

/// 1-based nearest rank of the p-th percentile, p in (0, 100], among n >= 1
/// samples: the smallest k >= p/100 * n, clamped to [1, n].
inline int64_t NearestRank(double p, int64_t n) {
  const int64_t k =
      static_cast<int64_t>((p / 100.0) * static_cast<double>(n) + 0.9999999);
  return k < 1 ? 1 : (k > n ? n : k);
}

/// Nearest-rank p-th percentile, p in (0, 100], of the ascending `sorted`;
/// 0 when empty.
inline int64_t SortedPercentile(const std::vector<int64_t>& sorted, double p) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  if (n == 0) return 0;
  return sorted[static_cast<size_t>(NearestRank(p, n) - 1)];
}

/// \brief The per-second demand history the coordinator maintains
/// (Section 4.4.1): the maximum number of concurrently requested tasks in
/// each second since the start of the workload.
///
/// Provisioning strategies ask for aggregates over trailing windows
/// ("lookbacks"). For each registered lookback the history keeps the
/// window's sum, and from the first SortedWindow/Percentile/Max call for
/// that lookback on also its samples as one sorted array, so a percentile
/// or max is a single array load and the several-hundred-expert dynamic
/// strategy reads every expert's percentile from six arrays each second.
/// An append replaces the evicted sample by the new one in place, moving
/// only the elements between their two ranks; strategies that never ask
/// for a percentile pay only the sums. The first call builds the array, so
/// const reads of one history must not run concurrently.
class WorkloadHistory {
 public:
  /// Default lookbacks (seconds) used by the strategy family: 10 s to 1 h.
  static const std::vector<int64_t>& DefaultLookbacks();

  explicit WorkloadHistory(
      std::vector<int64_t> lookbacks = DefaultLookbacks());

  /// Appends one second of demand (any value >= 0, kept exactly).
  void Append(int64_t demand);

  /// Number of seconds recorded.
  int64_t size() const { return static_cast<int64_t>(history_.size()); }
  /// Most recent sample (0 when empty).
  int64_t Latest() const { return history_.empty() ? 0 : history_.back(); }
  int64_t At(int64_t second) const { return history_[static_cast<size_t>(second)]; }
  const std::vector<int64_t>& values() const { return history_; }

  /// p in (0, 100]. Nearest-rank percentile over the last `lookback_s`
  /// seconds (or the whole history if shorter). `lookback_s` must be one of
  /// the registered lookbacks. Returns 0 on an empty history.
  int64_t Percentile(int64_t lookback_s, double p) const;

  /// Mean over the last `lookback_s` seconds (any lookback; O(1) via the
  /// registered window sums when registered, otherwise computed from the
  /// raw history).
  double Mean(int64_t lookback_s) const;

  /// Maximum over the last `lookback_s` seconds (registered lookback only).
  int64_t Max(int64_t lookback_s) const;

  /// The last min(size(), lookback_s) samples in ascending order
  /// (registered lookback only); valid until the next Append.
  const std::vector<int64_t>& SortedWindow(int64_t lookback_s) const;

  const std::vector<int64_t>& lookbacks() const { return lookbacks_; }

 private:
  struct Window {
    int64_t lookback_s;
    int64_t sum = 0;
    /// Built by the first SortedWindow() call, then kept up by Append.
    mutable bool sorted_live = false;
    mutable std::vector<int64_t> sorted;
  };

  const Window& FindWindow(int64_t lookback_s) const;

  std::vector<int64_t> lookbacks_;
  std::vector<int64_t> history_;
  std::vector<Window> windows_;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_WORKLOAD_HISTORY_H_
