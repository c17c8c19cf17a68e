#ifndef CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_
#define CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cost_model.h"
#include "common/rng.h"
#include "strategy/allocation_model.h"
#include "strategy/multiplicative_weights.h"
#include "strategy/strategy.h"

namespace cackle {

/// \brief Options for the dynamic cost-based meta-strategy.
struct DynamicStrategyOptions {
  FamilyOptions family;
  /// The meta-strategy re-runs (penalty update + expert re-selection) at
  /// this cadence; the paper uses five seconds.
  int64_t update_interval_s = 5;
  /// Multiplicative-weights learning rate.
  double epsilon = 0.25;
  /// Relative weight floor (fixed-share style) so the meta-strategy can
  /// re-converge quickly after an environment change; 0 disables.
  double weight_floor_ratio = 1e-6;
  /// Expert selection each round: true = sample from the weight
  /// distribution (the textbook randomized algorithm and the paper's
  /// description); false = play the heaviest expert (follow-the-leader,
  /// deterministic). Sampling keeps the adversarial regret guarantee;
  /// argmax avoids bouncing among near-tied experts.
  bool sample_expert = true;
  /// Tenant-aware demand aggregation: when the coordinator feeds a
  /// per-tenant demand mix (multi-tenant runs only), the played target is
  /// floored at `tenant_headroom` times the sum of each tenant's trailing
  /// `tenant_window_s`-second demand peak — capacity for every tenant to
  /// replay its recent burst simultaneously, so a quiet tenant's headroom
  /// is not silently repurposed when a heavy tenant dominates the
  /// aggregate percentiles. With one tenant the mix is never fed and the
  /// strategy is bit-identical to the single-tenant meta-strategy.
  bool tenant_aware = true;
  int64_t tenant_window_s = 60;
  double tenant_headroom = 1.0;
  uint64_t seed = 7;
};

/// \brief Cackle's dynamic cost-based meta-strategy (Section 4.4).
///
/// Maintains the whole percentile family as experts, held as a flat
/// struct-of-arrays table (PercentileFamily). Every second the table yields
/// each expert's target from the history's sorted windows; an
/// AllocationModel batch with one model per expert turns each target history
/// into an allocation history under the known VM startup time, and prices it
/// against the cost model
/// (what the expert *would* have cost had it been driving the system).
/// Every `update_interval_s` seconds the interval costs become penalties
/// for a multiplicative-weights update and the played expert is re-sampled
/// from the weight distribution. The played expert's current target is the
/// strategy's output.
///
/// The experts are held in one shard per lookback window: the window's run
/// of the family and its own AllocationModel batch. Expert costs depend
/// only on the demand series, never on the played target, so TargetSeries
/// prices a series it holds in full ahead of the decisions: the shards run
/// on a thread pool, a block of update intervals at a time, each keeping
/// its own sorted window over the series, and the calling thread then runs
/// the block's decisions in interval order. Target() is the same pipeline
/// one second at a time; both give bit-identical results.
///
/// If the cost model changes mid-workload (price or startup-time change),
/// the expert evaluations pick up the new conditions from the next step —
/// no parameters encode the old prices. TargetSeries reads one cost model
/// throughout, so it must not change during that call.
class DynamicStrategy : public ProvisioningStrategy {
 public:
  DynamicStrategy(const CostModel* cost,
                  DynamicStrategyOptions options = DynamicStrategyOptions());
  ~DynamicStrategy() override;

  std::string name() const override { return "dynamic"; }
  int64_t Target(const WorkloadHistory& history) override;
  std::vector<int64_t> TargetSeries(
      const std::vector<int64_t>& demand) override;

  /// Tenant-aware aggregation (see DynamicStrategyOptions::tenant_aware):
  /// maintains a per-tenant sliding-window demand peak; the next Target()
  /// call is floored at headroom * sum-of-peaks. Pure bookkeeping — no RNG
  /// draws — so feeding an empty mix (or never calling this) leaves the
  /// strategy untouched.
  void ObserveTenantDemand(const std::vector<TenantDemand>& mix) override;

  /// The current isolation floor, headroom * sum of per-tenant window
  /// peaks (0 when tenant awareness is off or no mix was ever observed).
  int64_t TenantIsolationFloor() const;

  /// Records a decision snapshot at every update round: counters for
  /// updates and expert switches, the chosen expert and its sampling
  /// probability, and a "strategy.decision" instant tagged with the expert
  /// name and played target (timestamped on the strategy's own seconds
  /// clock, which includes any primed-history replay).
  void SetObservability(MetricsRegistry* metrics, Tracer* tracer) override;

  size_t num_experts() const { return family_.size(); }
  /// The expert currently driving the system.
  size_t chosen_expert() const { return chosen_; }
  std::string chosen_expert_name() const;
  /// Predicted cumulative cost of expert `i` so far.
  double ExpertCost(size_t i) const;
  const MultiplicativeWeights& weights() const { return *mw_; }

  /// Number of times the chosen expert changed across updates.
  int64_t expert_switches() const { return switches_; }

 private:
  /// The experts [begin, end) of the family, which share one lookback
  /// window: one allocation model each, this second's targets and the
  /// costs of the current update interval so far. A shard's state is its
  /// own, so shards on different threads never write the same memory.
  struct Shard {
    size_t begin;
    size_t end;
    int64_t lookback_s;
    AllocationModel models;
    std::vector<int64_t> targets;
    std::vector<double> interval_cost;
  };

  /// Whether the strategy's `second` (1-based) is a decision point: an
  /// update boundary, or its first second, when the played target is set.
  bool DecisionPoint(int64_t second) const {
    return second % options_.update_interval_s == 0 || second <= 1;
  }
  /// Prices `shard`'s experts on the strategy's `second`, given their
  /// window's ascending samples `sorted` and that second's `demand`. At a
  /// decision point it copies their targets into `row_targets` and at an
  /// update boundary their interval costs into `row_costs` (rows of
  /// num_experts(), indexed by expert), starting the next interval.
  void PriceSecond(Shard& shard, const std::vector<int64_t>& sorted,
                   int64_t demand, int64_t second, int64_t* row_targets,
                   double* row_costs);
  /// PriceSecond for seconds [begin, end) of `demand`, the first of them
  /// the strategy's second `seen` + 1, writing one row per decision point.
  /// `window` holds the shard's sorted window before `begin` and is
  /// advanced.
  void PriceBlock(Shard& shard, const std::vector<int64_t>& demand,
                  int64_t begin, int64_t end, int64_t seen,
                  std::vector<int64_t>* window, int64_t* row_targets,
                  double* row_costs);
  /// The decision point seconds_seen_ given its rows: an update round at a
  /// boundary, otherwise the first second playing the chosen expert.
  void Play(const double* row_costs, const int64_t* row_targets);
  /// One update round: turns the experts' interval costs into penalties,
  /// updates the weights, picks the next expert, plays its `targets` entry
  /// and records the decision snapshot.
  void Decide(const double* interval_cost, const int64_t* targets);

  const CostModel* cost_;
  DynamicStrategyOptions options_;
  PercentileFamily family_;
  std::vector<Shard> shards_;
  /// Target()'s decision rows (scratch, reused).
  std::vector<int64_t> row_targets_;
  std::vector<double> row_costs_;
  /// Per-update MW penalties (scratch, reused).
  std::vector<double> penalties_;
  std::unique_ptr<MultiplicativeWeights> mw_;
  Rng rng_;
  size_t chosen_ = 0;
  /// Per-tenant trailing demand samples as (observation index, demand)
  /// monotonic deques: the front is the window maximum. Ordered map for
  /// deterministic iteration; tenants idle for a full window are erased.
  std::map<int32_t, std::deque<std::pair<int64_t, int64_t>>> tenant_peaks_;
  int64_t tenant_observations_ = 0;
  int64_t seconds_seen_ = 0;
  int64_t switches_ = 0;
  int64_t last_target_ = 0;
  MetricsRegistry* metrics_sink_ = nullptr;
  Tracer* tracer_sink_ = nullptr;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_
