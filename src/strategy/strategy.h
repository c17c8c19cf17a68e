#ifndef CACKLE_STRATEGY_STRATEGY_H_
#define CACKLE_STRATEGY_STRATEGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/cost_model.h"
#include "strategy/workload_history.h"

namespace cackle {

class MetricsRegistry;
class Tracer;

/// \brief One tenant's share of the current second's demand. The engine
/// feeds the per-tenant breakdown of the aggregate demand sample to
/// tenant-aware strategies; the sum over a snapshot equals the aggregate.
struct TenantDemand {
  int32_t tenant = 0;
  int64_t demand = 0;
};

/// \brief A provisioning strategy: maps the observed workload history to a
/// target number of provisioned VMs (Section 4 of the paper).
///
/// Target() is invoked once per simulated second with the history already
/// containing that second's demand sample. Strategies must be deterministic
/// functions of the history (the dynamic meta-strategy carries its own
/// seeded RNG).
class ProvisioningStrategy {
 public:
  virtual ~ProvisioningStrategy() = default;

  /// Display name, e.g. "fixed_500", "mean_2", "p80_x1.5_lb300".
  virtual std::string name() const = 0;

  /// Target VM count for the next second.
  virtual int64_t Target(const WorkloadHistory& history) = 0;

  /// Targets for a whole demand series held up front: element t is what
  /// Target() returns after the t-th sample is appended to a fresh default
  /// WorkloadHistory, and the strategy ends in the state that per-second
  /// replay leaves it in. The default is exactly that replay; a strategy
  /// may override it to price ahead of its decisions, bit for bit equal.
  virtual std::vector<int64_t> TargetSeries(
      const std::vector<int64_t>& demand);

  /// Per-tenant breakdown of the demand sample about to be Target()ed,
  /// ascending tenant order, zero-demand tenants omitted. Called by
  /// multi-tenant coordinators immediately before Target(); never called in
  /// single-tenant runs, so ignoring it (the default) preserves the
  /// single-tenant behaviour exactly.
  virtual void ObserveTenantDemand(const std::vector<TenantDemand>& mix) {
    (void)mix;
  }

  /// Attaches observability sinks for decision snapshots (both non-null;
  /// a disabled tracer no-ops). Recording is pure bookkeeping — it must
  /// never change what Target() returns. Default: ignore.
  virtual void SetObservability(MetricsRegistry* metrics, Tracer* tracer) {
    (void)metrics;
    (void)tracer;
  }
};

/// \brief `fixed_x`: a constant provisioning chosen up front (Section 4.2).
/// fixed_0 runs the entire workload on the elastic pool (pure Starling).
class FixedStrategy : public ProvisioningStrategy {
 public:
  explicit FixedStrategy(int64_t target) : target_(target) {}
  std::string name() const override {
    return "fixed_" + std::to_string(target_);
  }
  int64_t Target(const WorkloadHistory&) override { return target_; }

 private:
  int64_t target_;
};

/// \brief `mean_y`: mean demand of the trailing window times a constant
/// multiplier (Section 4.3 / 5.1; the paper's window is five minutes).
class MeanStrategy : public ProvisioningStrategy {
 public:
  explicit MeanStrategy(double multiplier) : multiplier_(multiplier) {}
  std::string name() const override;
  int64_t Target(const WorkloadHistory& history) override;

 private:
  /// The trailing window, five minutes.
  static constexpr int64_t kLookbackS = 300;
  double multiplier_;
};

/// \brief `predictive`: linear regression over the trailing window,
/// extrapolated to the moment newly requested VMs would come online; the
/// target is the maximum of the predicted demand over that horizon
/// (Section 5.1).
class PredictiveStrategy : public ProvisioningStrategy {
 public:
  /// CHECK-fails unless `vm_startup_ms` >= 0.
  explicit PredictiveStrategy(SimTimeMs vm_startup_ms);
  std::string name() const override { return "predictive"; }
  int64_t Target(const WorkloadHistory& history) override;
  /// Fits the full windows of a few consecutive seconds in one pass over
  /// the demand; bit for bit the per-second Target() replay.
  std::vector<int64_t> TargetSeries(
      const std::vector<int64_t>& demand) override;

 private:
  /// The trailing window, five minutes.
  static constexpr int64_t kLookbackS = 300;
  int64_t horizon_s_;
};

/// \brief Percentile strategy (Section 4.4.5): the p-th percentile of the
/// last `lookback_s` seconds of demand, times `multiplier`.
class PercentileStrategy : public ProvisioningStrategy {
 public:
  PercentileStrategy(int64_t lookback_s, double percentile, double multiplier)
      : lookback_s_(lookback_s), percentile_(percentile),
        multiplier_(multiplier) {}
  std::string name() const override;
  int64_t Target(const WorkloadHistory& history) override;

  int64_t lookback_s() const { return lookback_s_; }
  double percentile() const { return percentile_; }
  double multiplier() const { return multiplier_; }

 private:
  int64_t lookback_s_;
  double percentile_;
  double multiplier_;
};

/// \brief Options controlling the strategy family of the dynamic
/// meta-strategy (Section 4.4.5).
struct FamilyOptions {
  /// Lookbacks from 10 seconds to an hour.
  std::vector<int64_t> lookbacks_s = WorkloadHistory::DefaultLookbacks();
  /// Percentiles 1..100 in this step, each with multiplier 1.0.
  int percentile_step = 1;
  /// Additional 80th-percentile strategies with multipliers above 1 so the
  /// family can provision more than anything seen in the history (needed
  /// for increasing workloads).
  std::vector<double> boost_multipliers = {1.1,  1.25, 1.5, 2.0,  3.0, 4.0,
                                           5.0,  7.0,  10.0, 15.0, 20.0};
};

/// \brief The percentile strategy family as a flat struct-of-arrays expert
/// table: expert i is PercentileStrategy(lookbacks_s[window[i]],
/// percentile[i], multiplier[i]). Several hundred experts with the default
/// options, in runs sharing a window, each run evaluated by RunTargets().
struct PercentileFamily {
  /// The family's lookbacks in FamilyOptions order; window[i] indexes it.
  std::vector<int64_t> lookbacks_s;
  std::vector<uint32_t> window;
  std::vector<double> percentile;
  std::vector<double> multiplier;

  size_t size() const { return window.size(); }

  /// Expert `i` as a standalone strategy (its name, or a reference target).
  PercentileStrategy Expert(size_t i) const;

  /// Writes the targets of the run of experts [begin, end), which share
  /// one window, into out[0, end - begin), given that window's ascending
  /// samples `sorted`: out[i - begin] equals Expert(i).Target() on a
  /// history whose window holds `sorted`. A nearest rank depends only on
  /// the percentile and the window's fill count, so each run's ranks are
  /// cached and recomputed only while its window fills. Calls for
  /// different runs touch disjoint state and may run concurrently.
  void RunTargets(size_t begin, size_t end,
                  const std::vector<int64_t>& sorted, int64_t* out);

 private:
  friend PercentileFamily BuildPercentileFamily(const FamilyOptions& options);

  /// rank_[i] is expert i's 1-based nearest rank in a window of
  /// rank_fill_[b] samples, b the first expert of i's run (-1: not yet).
  /// Sized by BuildPercentileFamily; the table must not change after.
  std::vector<int64_t> rank_;
  std::vector<int64_t> rank_fill_;
};

/// Builds the percentile strategy family: per lookback, percentiles 1..100
/// in `percentile_step`s with multiplier 1, then the 80th percentile at each
/// boost multiplier.
PercentileFamily BuildPercentileFamily(
    const FamilyOptions& options = FamilyOptions());

}  // namespace cackle

#endif  // CACKLE_STRATEGY_STRATEGY_H_
