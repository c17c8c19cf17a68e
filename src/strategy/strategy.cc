#include "strategy/strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/stats.h"
#include "common/table_printer.h"

namespace cackle {

std::vector<int64_t> ProvisioningStrategy::TargetSeries(
    const std::vector<int64_t>& demand) {
  WorkloadHistory history;
  std::vector<int64_t> targets;
  targets.reserve(demand.size());
  for (int64_t d : demand) {
    history.Append(d);
    targets.push_back(Target(history));
  }
  return targets;
}

std::string MeanStrategy::name() const {
  // Built with append() rather than operator+ chains: GCC 12's -O3
  // -Wrestrict false-positives on the temporary produced by
  // `"literal" + std::string`, and the append form sidesteps it (and a
  // temporary) entirely.
  std::string n = "mean_";
  n += FormatDouble(multiplier_, 1);
  if (n.size() >= 2 && n.compare(n.size() - 2, 2, ".0") == 0) {
    n.resize(n.size() - 2);
  }
  return n;
}

int64_t MeanStrategy::Target(const WorkloadHistory& history) {
  const double mean = history.Mean(kLookbackS);
  const double target = std::ceil(mean * multiplier_);
  // 2^63: the first double past INT64_MAX.
  CACKLE_CHECK(target >= 0.0 && target < 9223372036854775808.0)
      << name() << " target " << target << " (mean " << mean
      << ") is out of int64 range";
  return static_cast<int64_t>(target);
}

namespace {

/// Every partial sum of non-negative integers below 2^53 is exact in a
/// double.
constexpr int64_t kExactDouble = int64_t{1} << 53;

/// The predictive target of the line fitted to a window of n samples, from
/// the fit's moments: the maximum of the fitted demand now and at the end of
/// the horizon, as a non-negative whole number of VMs.
int64_t PredictFromMoments(int64_t n, int64_t horizon_s, double mean_x,
                           double mean_y, double cov, double var_x) {
  LinearFit fit;
  if (var_x <= 0.0) {
    fit.intercept = mean_y;
  } else {
    fit.slope = cov / var_x;
    fit.intercept = mean_y - fit.slope * mean_x;
  }
  // Predict demand out to when VMs requested now would start, and target
  // the maximum of the prediction over that horizon (the fit's slope makes
  // this either the current fitted value or the horizon endpoint).
  const double at_now = fit.At(static_cast<double>(n - 1));
  const double at_horizon = fit.At(static_cast<double>(n - 1 + horizon_s));
  const double target = std::max(at_now, at_horizon);
  return std::max<int64_t>(0, static_cast<int64_t>(std::ceil(target)));
}

/// The predictive target of the n >= 1 samples ys[0, n), as
/// FitLine(xs = 0..n-1, ys) rounds it. FitLine sums the xs and the ys as
/// doubles in order. Demand is never negative, so while both totals stay
/// below 2^53 every partial sum is an exact integer and the integer sums
/// give the same means.
int64_t PredictWindow(const int64_t* ys, int64_t n, int64_t horizon_s) {
  int64_t sum_y = 0;
  bool overflow = false;
  for (int64_t i = 0; i < n; ++i) {
    overflow |= __builtin_add_overflow(sum_y, ys[i], &sum_y);
  }
  double mean_x = 0.0;
  double mean_y = 0.0;
  // n never exceeds the 300 s window, so the xs' total n(n-1)/2 is exact.
  if (!overflow && sum_y < kExactDouble) {
    mean_x = static_cast<double>(n * (n - 1) / 2);
    mean_y = static_cast<double>(sum_y);
  } else {
    for (int64_t i = 0; i < n; ++i) {
      mean_x += static_cast<double>(i);
      mean_y += static_cast<double>(ys[i]);
    }
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double cov = 0.0;
  double var_x = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    cov += dx * (static_cast<double>(ys[i]) - mean_y);
    var_x += dx * dx;
  }
  return PredictFromMoments(n, horizon_s, mean_x, mean_y, cov, var_x);
}

/// The covariance terms of K windows of n samples, the k-th starting at
/// ys + k, about their means mean_y[k]: cov[k] is PredictWindow's `cov` for
/// that window, each window's terms added in index order in an accumulator
/// of its own. dx[i] is i minus the windows' common mean index.
template <int K>
void WindowCovariances(const int64_t* ys, const double* dx, int64_t n,
                       const double* mean_y, double* cov) {
  double acc[K] = {};
  for (int64_t i = 0; i < n; ++i) {
    for (int k = 0; k < K; ++k) {
      acc[k] += dx[i] * (static_cast<double>(ys[i + k]) - mean_y[k]);
    }
  }
  std::copy(acc, acc + K, cov);
}

}  // namespace

PredictiveStrategy::PredictiveStrategy(SimTimeMs vm_startup_ms)
    : horizon_s_(vm_startup_ms / 1000) {
  CACKLE_CHECK_GE(vm_startup_ms, 0);
}

int64_t PredictiveStrategy::Target(const WorkloadHistory& history) {
  const int64_t n = std::min<int64_t>(history.size(), kLookbackS);
  if (n == 0) return 0;
  return PredictWindow(history.values().data() + (history.size() - n), n,
                       horizon_s_);
}

std::vector<int64_t> PredictiveStrategy::TargetSeries(
    const std::vector<int64_t>& demand) {
  // The checks a fresh default WorkloadHistory makes on every sample.
  const int64_t longest = WorkloadHistory::DefaultLookbacks().back();
  const int64_t max_demand = std::numeric_limits<int64_t>::max() / longest;
  const auto check = [max_demand, longest](int64_t demand) {
    CACKLE_CHECK_GE(demand, 0);
    CACKLE_CHECK_LE(demand, max_demand)
        << "demand would overflow a " << longest << " s window sum";
  };
  for (const int64_t d : demand) check(d);
  const int64_t size = static_cast<int64_t>(demand.size());
  const int64_t* ys = demand.data();
  constexpr int64_t lookback = kLookbackS;
  std::vector<int64_t> targets(demand.size());
  // Second t's window is the last min(t + 1, lookback) samples through t.
  const auto per_second = [&](int64_t t) {
    const int64_t n = std::min(t + 1, lookback);
    targets[static_cast<size_t>(t)] =
        PredictWindow(ys + (t + 1 - n), n, horizon_s_);
  };
  // While the window fills, each second is fitted on its own.
  const int64_t first_full = std::min(size, lookback - 1);
  for (int64_t t = 0; t < first_full; ++t) per_second(t);
  if (first_full == size) return targets;
  // Every full window has n = lookback samples, so its index mean, index
  // deviations and index variance are the same as PredictWindow's for any
  // of them; only the demand moments move.
  const double n = static_cast<double>(lookback);
  const double mean_x =
      static_cast<double>(lookback * (lookback - 1) / 2) / n;
  std::vector<double> dx(static_cast<size_t>(lookback));
  double var_x = 0.0;
  for (int64_t i = 0; i < lookback; ++i) {
    dx[static_cast<size_t>(i)] = static_cast<double>(i) - mean_x;
    var_x += dx[static_cast<size_t>(i)] * dx[static_cast<size_t>(i)];
  }
  // The window sum of second t (0-based), exactly: the window is shorter
  // than `longest`, so its samples of at most max_demand fit in int64.
  int64_t sum = 0;
  for (int64_t i = 0; i < lookback; ++i) sum += ys[i];
  const auto slide = [&](int64_t t) {  // sum of t to sum of t + 1
    sum += ys[t + 1] - ys[t + 1 - lookback];
  };
  // Consecutive seconds whose window sums are exact in a double share one
  // pass over their windows, kBlock at a time; any other second takes the
  // per-second path, which sums its window as doubles.
  constexpr int kBlock = 4;
  double mean_y[kBlock];
  double cov[kBlock];
  int64_t t = first_full;
  while (t < size) {
    int k = 0;
    for (; k < kBlock && t + k < size && sum < kExactDouble; ++k) {
      mean_y[k] = static_cast<double>(sum) / n;
      if (t + k + 1 < size) slide(t + k);
    }
    const int64_t* window = ys + (t + 1 - lookback);
    if (k == kBlock) {
      WindowCovariances<kBlock>(window, dx.data(), lookback, mean_y, cov);
    } else {
      for (int j = 0; j < k; ++j) {
        WindowCovariances<1>(window + j, dx.data(), lookback, mean_y + j,
                             cov + j);
      }
    }
    for (int j = 0; j < k; ++j) {
      targets[static_cast<size_t>(t + j)] = PredictFromMoments(
          lookback, horizon_s_, mean_x, mean_y[j], cov[j], var_x);
    }
    t += k;
    if (k < kBlock && t < size) {
      // Second t's window sum reached 2^53.
      per_second(t);
      if (t + 1 < size) slide(t);
      ++t;
    }
  }
  return targets;
}

std::string PercentileStrategy::name() const {
  // Append form for the same -Wrestrict reason as MeanStrategy::name().
  std::string n = "p";
  n += std::to_string(static_cast<int>(percentile_));
  if (multiplier_ != 1.0) {
    n += "_x";
    n += FormatDouble(multiplier_, 2);
  }
  n += "_lb";
  n += std::to_string(lookback_s_);
  return n;
}

int64_t PercentileStrategy::Target(const WorkloadHistory& history) {
  const int64_t pct = history.Percentile(lookback_s_, percentile_);
  return static_cast<int64_t>(
      std::ceil(static_cast<double>(pct) * multiplier_));
}

PercentileStrategy PercentileFamily::Expert(size_t i) const {
  return PercentileStrategy(lookbacks_s[window[i]], percentile[i],
                            multiplier[i]);
}

void PercentileFamily::RunTargets(size_t begin, size_t end,
                                  const std::vector<int64_t>& sorted,
                                  int64_t* out) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  if (n == 0) {
    std::fill(out, out + (end - begin), 0);
    return;
  }
  if (rank_fill_[begin] != n) {
    for (size_t i = begin; i < end; ++i) {
      rank_[i] = NearestRank(percentile[i], n);
    }
    rank_fill_[begin] = n;
  }
  // Every sample below 2^53 converts to double exactly, so a multiplier of
  // 1 leaves it unchanged: ceil(double(v) * 1.0) == v.
  constexpr int64_t kExactDouble = int64_t{1} << 53;
  const bool exact = sorted.back() < kExactDouble;
  for (size_t i = begin; i < end; ++i) {
    const int64_t pct = sorted[static_cast<size_t>(rank_[i] - 1)];
    out[i - begin] = multiplier[i] == 1.0 && exact
                         ? pct
                         : static_cast<int64_t>(std::ceil(
                               static_cast<double>(pct) * multiplier[i]));
  }
}

PercentileFamily BuildPercentileFamily(const FamilyOptions& options) {
  PercentileFamily family;
  family.lookbacks_s = options.lookbacks_s;
  const auto add = [&family](uint32_t slot, double p, double m) {
    family.window.push_back(slot);
    family.percentile.push_back(p);
    family.multiplier.push_back(m);
  };
  CACKLE_CHECK_GT(options.percentile_step, 0);
  for (uint32_t slot = 0; slot < family.lookbacks_s.size(); ++slot) {
    for (int p = 1; p <= 100; p += options.percentile_step) {
      add(slot, static_cast<double>(p), 1.0);
    }
    for (double m : options.boost_multipliers) add(slot, 80.0, m);
  }
  CACKLE_CHECK(family.size() > 0);
  family.rank_.assign(family.size(), 0);
  family.rank_fill_.assign(family.size(), -1);
  return family;
}

}  // namespace cackle
