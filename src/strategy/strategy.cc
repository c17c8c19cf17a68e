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
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(static_cast<size_t>(n));
  ys.reserve(static_cast<size_t>(n));
  const int64_t start = history.size() - n;
  for (int64_t i = 0; i < n; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(static_cast<double>(history.At(start + i)));
  }
  const LinearFit fit = FitLine(xs, ys);
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
                               std::vector<int64_t>* targets) const {
  targets->resize(size());
  const std::vector<int64_t>* sorted = nullptr;
  uint32_t slot = 0;
  for (size_t i = 0; i < size(); ++i) {
    if (sorted == nullptr || window[i] != slot) {
      slot = window[i];
      sorted = &history.SortedWindow(lookbacks_s[slot]);
    }
    const int64_t pct = SortedPercentile(*sorted, percentile[i]);
    (*targets)[i] = static_cast<int64_t>(
        std::ceil(static_cast<double>(pct) * multiplier[i]));
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
