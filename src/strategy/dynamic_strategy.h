#ifndef CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_
#define CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cost_model.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "strategy/allocation_model.h"
#include "strategy/multiplicative_weights.h"
#include "strategy/strategy.h"

namespace cackle {

class Counter;
class Gauge;
class Histogram;

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
  uint64_t seed = 7;
};

/// \brief Cackle's dynamic cost-based meta-strategy (Section 4.4).
///
/// Maintains the whole percentile family as experts, held as a flat
/// struct-of-arrays table (PercentileFamily). Every second the table yields
/// each expert's target from sorted windows over the demand series; an
/// AllocationModel batch with one model per expert turns each target
/// history into an allocation history under the known VM startup time, and
/// prices it against the cost model (what the expert *would* have cost had
/// it been driving the system). Every `update_interval_s` seconds the
/// interval costs become penalties for a multiplicative-weights update and
/// the played expert is re-sampled from the weight distribution. The played
/// expert's current target is the strategy's output.
///
/// Pricing pipeline. Expert costs depend only on the demand series, never
/// on the played target, so pricing runs apart from the decisions. The
/// experts are held in one shard per lookback window: the window's run of
/// the family, its own sorted window over the strategy's demand ring and
/// its own AllocationModel batch. Target() and TargetSeries() both
/// *publish* seconds of demand into the ring. Two long-lived pricing
/// workers, each owning a fixed lane of shards, price every published
/// second and copy the experts' targets (and, at an update boundary, their
/// interval costs) into a ring of decision rows. The calling thread waits
/// for the shards only at a decision point, then plays that second's row,
/// so Target() returns at once on a non-decision second. A shard whose
/// worker does not deliver (descheduled, or sharing the calling thread's
/// core) is priced by the calling thread instead. TargetSeries() publishes
/// up to half a row ring at a time, and then all three threads price any
/// free shard. Both leave the strategy in the same state, so a replay may
/// be continued online; results are bit-identical to pricing every second
/// on the calling thread.
///
/// The workers start on the first publish. On a ThreadPool task (a sweep
/// cell, say) no thread is started and the calling thread prices each
/// second as it publishes it. A worker with nothing to price parks after
/// a short spin and takes no CPU.
///
/// If the cost model changes mid-workload (price or startup-time change),
/// the expert evaluations pick up the new conditions from the next
/// published second — no parameters encode the old prices. A change is
/// seen at the next Target() or TargetSeries() call; the cost model must
/// not change during a TargetSeries call.
class DynamicStrategy : public ProvisioningStrategy {
 public:
  DynamicStrategy(const CostModel* cost,
                  DynamicStrategyOptions options = DynamicStrategyOptions());
  ~DynamicStrategy() override;

  DynamicStrategy(const DynamicStrategy&) = delete;
  DynamicStrategy& operator=(const DynamicStrategy&) = delete;

  std::string name() const override { return "dynamic"; }
  /// Takes one second per call: `history` holds exactly one more sample
  /// than the strategy has seen (its replays included).
  int64_t Target(const WorkloadHistory& history) override;
  std::vector<int64_t> TargetSeries(
      const std::vector<int64_t>& demand) override;

  /// Tenant-aware aggregation: when the coordinator feeds a per-tenant
  /// demand mix (multi-tenant runs only), the played target is floored at
  /// the sum of each tenant's trailing 60-second demand peak — capacity for
  /// every tenant to replay its recent burst simultaneously, so a quiet
  /// tenant's headroom is not silently repurposed when a heavy tenant
  /// dominates the aggregate percentiles. Pure bookkeeping — no RNG draws —
  /// so feeding an empty mix (or never calling this, as single-tenant runs
  /// do) leaves the strategy untouched.
  void ObserveTenantDemand(const std::vector<TenantDemand>& mix) override;

  /// The current isolation floor, the sum of per-tenant window peaks (0
  /// when no mix was ever observed).
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
  /// Predicted cumulative cost of expert `i` through the latest second
  /// (waits for the workers to price it).
  double ExpertCost(size_t i) const;
  const MultiplicativeWeights& weights() const { return *mw_; }

  /// Number of times the chosen expert changed across updates.
  int64_t expert_switches() const { return switches_; }

 private:
  /// Pricing workers. Shards are dealt round-robin to lanes: worker w
  /// owns lane w; during TargetSeries the calling thread owns one more.
  static constexpr size_t kPricingThreads = 2;

  /// The experts [begin, end) of the family, which share one lookback
  /// window: one allocation model each, the window's ascending samples,
  /// this second's targets and the costs of the current update interval
  /// so far. A shard's state is its own, so shards on different threads
  /// never write the same memory.
  struct Shard {
    size_t begin;
    size_t end;
    int64_t lookback_s;
    AllocationModel models;
    std::vector<int64_t> window;
    std::vector<int64_t> targets;
    std::vector<double> interval_cost;
  };

  /// A shard's pricing progress, on a cache line of its own.
  struct alignas(64) ShardClock {
    /// Seconds the shard is priced through.
    std::atomic<int64_t> priced{0};
    /// Held by the one thread pricing the shard (acquire/release hand the
    /// shard's state from one pricing thread to the next).
    std::atomic<bool> claimed{false};
  };

  /// Whether the strategy's `second` (1-based) is a decision point: an
  /// update boundary, or its first second, when the played target is set.
  bool DecisionPoint(int64_t second) const {
    return second % options_.update_interval_s == 0 || second <= 1;
  }
  /// Decision points among the strategy's seconds [1, second], second >= 1.
  int64_t DecisionsThrough(int64_t second) const;
  /// The strategy second of its k-th decision point, k >= 1.
  int64_t DecisionSecond(int64_t k) const;
  /// Offset into the row rings of decision point `second`'s row.
  size_t RowOffset(int64_t second) const;

  /// Allocates the demand ring, the row rings and the shard windows on the
  /// calling thread, then starts the pricing workers unless the calling
  /// thread runs a pool task.
  void StartPricing();
  /// Appends `count` seconds of `demand` to the ring and makes them visible
  /// to the workers (or prices them inline), first catching up where the
  /// ring would overwrite samples a shard still reads.
  void Publish(const int64_t* demand, int64_t count);
  /// Returns once every shard is priced through `second` (at most the
  /// seconds published). A shard whose worker has not priced it after a
  /// grace period of spinning (a descheduled worker, say) is priced here,
  /// so the calling thread never waits long on a thread it cannot see.
  void CatchUp(int64_t second);
  /// Claims shard `k` and prices it through `through`; false when another
  /// thread holds it.
  bool TryPriceShard(size_t k, int64_t through);
  /// Worker `w`'s loop: prices its lane's shards (during TargetSeries, any
  /// free shard) through each published second until the strategy stops.
  void PricingLoop(size_t w);
  /// Spins briefly, then parks, until more than `seen` seconds are
  /// published; returns their number, or -1 once the strategy stops.
  int64_t AwaitPublished(int64_t seen);
  /// Prices `shard`'s experts on the strategy's `second`: slides its window
  /// by that second's demand, steps its models, and at a decision point
  /// copies their targets into the second's row and at an update boundary
  /// their interval costs too, starting the next interval.
  void PriceSecond(Shard& shard, int64_t second);
  /// The decision point seconds_seen_ given its priced row: an update
  /// round at a boundary, otherwise the first second playing the chosen
  /// expert.
  void Play();
  /// One update round: turns the experts' interval costs into penalties,
  /// updates the weights, picks the next expert, plays its `targets` entry
  /// and records the decision snapshot.
  void Decide(const double* interval_cost, const int64_t* targets);

  const CostModel* cost_;
  /// The environment the shards price under: *cost_ as of the latest
  /// publish, so a caller may change *cost_ while earlier seconds price.
  CostModel env_;
  DynamicStrategyOptions options_;
  PercentileFamily family_;
  std::vector<Shard> shards_;
  /// Demand ring: the strategy's second s at (s - 1) & series_mask_. It
  /// holds the longest lookback plus the seconds published ahead.
  std::vector<int64_t> series_;
  int64_t series_mask_ = 0;
  /// Decision row rings: num_experts() targets and interval costs per row,
  /// one row per decision point, consumed in order. Target() needs one row
  /// (each decision is played before the next is published); TargetSeries
  /// uses all of them.
  std::unique_ptr<int64_t[]> row_targets_;
  std::unique_ptr<double[]> row_costs_;
  int64_t rows_ = 1;
  bool started_ = false;
  bool threaded_ = false;
  /// Seconds published; the calling thread's copy of published_.
  int64_t published_s_ = 0;
  /// Seconds published, for the workers.
  alignas(64) std::atomic<int64_t> published_{0};
  /// Whether a TargetSeries call runs: then the workers price any free
  /// shard instead of their own lanes.
  std::atomic<bool> sharing_{false};
  /// One per shard.
  std::unique_ptr<ShardClock[]> clocks_;
  /// Each shard's priced count as the calling thread last caught up, and
  /// the second every shard was then priced through.
  std::vector<int64_t> priced_seen_;
  int64_t caught_up_ = 0;
  /// Workers parked on park_cv_.
  std::atomic<int> parked_{0};
  Mutex park_mu_;
  CondVar park_cv_;
  bool stop_ CACKLE_GUARDED_BY(park_mu_) = false;
  std::unique_ptr<ThreadPool> pool_;
  /// The workers' loops; destroyed (after they return) before pool_.
  std::unique_ptr<TaskGroup> loops_;
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
  /// metrics_sink_'s decision metrics, once looked up.
  Counter* updates_ = nullptr;
  Counter* switches_counter_ = nullptr;
  Gauge* chosen_gauge_ = nullptr;
  Gauge* probability_gauge_ = nullptr;
  Histogram* target_histogram_ = nullptr;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_
