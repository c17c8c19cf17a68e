#include "strategy/strategy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stats.h"
#include "common/table_printer.h"

namespace cackle {

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
  const double mean = history.Mean(lookback_s_);
  return static_cast<int64_t>(std::ceil(mean * multiplier_));
}

int64_t PredictiveStrategy::Target(const WorkloadHistory& history) {
  const int64_t n = std::min<int64_t>(history.size(), lookback_s_);
  if (n == 0) return 0;
  // FitLine(xs = 0..n-1, ys = the window) in place, with FitLine's
  // rounding. FitLine sums the xs and the ys as doubles in order. Demand is
  // never negative, so while both totals stay below 2^53 every partial sum
  // is an exact integer and the integer sums give the same means.
  const int64_t* ys = history.values().data() + (history.size() - n);
  constexpr int64_t kExactDouble = int64_t{1} << 53;
  int64_t sum_y = 0;
  bool overflow = false;
  for (int64_t i = 0; i < n; ++i) {
    overflow |= __builtin_add_overflow(sum_y, ys[i], &sum_y);
  }
  double mean_x = 0.0;
  double mean_y = 0.0;
  // n < 2^26 keeps the xs' total n(n-1)/2 below 2^53.
  if (n < (int64_t{1} << 26) && !overflow && sum_y < kExactDouble) {
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
  const double at_horizon = fit.At(static_cast<double>(n - 1 + horizon_s_));
  const double target = std::max(at_now, at_horizon);
  return std::max<int64_t>(0, static_cast<int64_t>(std::ceil(target)));
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

void PercentileFamily::Targets(const WorkloadHistory& history,
                               std::vector<int64_t>* targets) {
  targets->resize(size());
  if (rank_.size() != size()) {
    rank_.assign(size(), 0);
    rank_fill_.assign(size(), -1);
  }
  // Every sample below 2^53 converts to double exactly, so a multiplier of
  // 1 leaves it unchanged: ceil(double(v) * 1.0) == v.
  constexpr int64_t kExactDouble = int64_t{1} << 53;
  for (size_t begin = 0, end = 0; begin < size(); begin = end) {
    const uint32_t slot = window[begin];
    end = begin + 1;
    while (end < size() && window[end] == slot) ++end;
    const std::vector<int64_t>& sorted =
        history.SortedWindow(lookbacks_s[slot]);
    const int64_t n = static_cast<int64_t>(sorted.size());
    if (n == 0) {
      std::fill(targets->begin() + static_cast<std::ptrdiff_t>(begin),
                targets->begin() + static_cast<std::ptrdiff_t>(end), 0);
      continue;
    }
    if (rank_fill_[begin] != n) {
      for (size_t i = begin; i < end; ++i) {
        rank_[i] = NearestRank(percentile[i], n);
      }
      rank_fill_[begin] = n;
    }
    const bool exact = sorted.back() < kExactDouble;
    for (size_t i = begin; i < end; ++i) {
      const int64_t pct = sorted[static_cast<size_t>(rank_[i] - 1)];
      (*targets)[i] = multiplier[i] == 1.0 && exact
                          ? pct
                          : static_cast<int64_t>(std::ceil(
                                static_cast<double>(pct) * multiplier[i]));
    }
  }
}

PercentileFamily BuildPercentileFamily(const FamilyOptions& options) {
  PercentileFamily family;
  family.lookbacks_s = options.lookbacks_s;
  const auto add = [&family](uint32_t slot, double p, double m) {
    CACKLE_CHECK_GT(p, 0.0);
    CACKLE_CHECK_LE(p, 100.0);
    family.window.push_back(slot);
    family.percentile.push_back(p);
    family.multiplier.push_back(m);
  };
  CACKLE_CHECK_GT(options.percentile_step, 0);
  for (uint32_t slot = 0; slot < family.lookbacks_s.size(); ++slot) {
    for (int p = options.percentile_lo; p <= options.percentile_hi;
         p += options.percentile_step) {
      add(slot, static_cast<double>(p), 1.0);
    }
    for (double m : options.boost_multipliers) {
      add(slot, options.boosted_percentile, m);
    }
  }
  CACKLE_CHECK(family.size() > 0);
  return family;
}

}  // namespace cackle
