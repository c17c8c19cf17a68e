#include "strategy/dynamic_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/metric_names.h"
#include "common/thread_pool.h"
#include "common/tracer.h"

namespace cackle {

namespace {
/// Update intervals TargetSeries prices per fan-out before deciding them.
constexpr int64_t kBlockIntervals = 64;
/// Pool threads pricing shards in TargetSeries. The calling thread runs the
/// decisions and then helps, so three threads share the default family's
/// six shards; leaving a core of four free keeps the blocks from stalling
/// on a preempted thread when other processes want the machine too.
constexpr int kPricingThreads = 2;
/// Elements of a shard scratch array that fill one 64-byte cache line.
constexpr size_t kLineSlack = 64 / sizeof(int64_t);
}  // namespace

DynamicStrategy::DynamicStrategy(const CostModel* cost,
                                 DynamicStrategyOptions options)
    : cost_(cost), options_(std::move(options)),
      family_(BuildPercentileFamily(options_.family)), rng_(options_.seed) {
  CACKLE_CHECK_GT(options_.update_interval_s, 0);
  CACKLE_CHECK_GT(options_.tenant_window_s, 0);
  CACKLE_CHECK_GE(options_.tenant_headroom, 0.0);
  for (size_t begin = 0, end = 0; begin < family_.size(); begin = end) {
    end = begin + 1;
    while (end < family_.size() &&
           family_.window[end] == family_.window[begin]) {
      ++end;
    }
    // A cache line of slack after each scratch array keeps neighbouring
    // shards' arrays off each other's lines.
    const size_t padded = end - begin + kLineSlack;
    shards_.push_back(Shard{begin, end,
                            family_.lookbacks_s[family_.window[begin]],
                            AllocationModel(cost_, end - begin),
                            std::vector<int64_t>(padded, 0),
                            std::vector<double>(padded, 0.0)});
  }
  row_targets_.assign(family_.size(), 0);
  row_costs_.assign(family_.size(), 0.0);
  mw_ = std::make_unique<MultiplicativeWeights>(
      family_.size(), options_.epsilon, options_.weight_floor_ratio);
  chosen_ = family_.size() / 2;  // arbitrary deterministic initial expert
}

DynamicStrategy::~DynamicStrategy() = default;

std::string DynamicStrategy::chosen_expert_name() const {
  return family_.Expert(chosen_).name();
}

double DynamicStrategy::ExpertCost(size_t i) const {
  CACKLE_CHECK_LT(i, family_.size());
  for (const Shard& shard : shards_) {
    if (i < shard.end) return shard.models.total_cost(i - shard.begin);
  }
  __builtin_unreachable();
}

void DynamicStrategy::SetObservability(MetricsRegistry* metrics,
                                       Tracer* tracer) {
  metrics_sink_ = metrics;
  tracer_sink_ = tracer;
}

void DynamicStrategy::ObserveTenantDemand(
    const std::vector<TenantDemand>& mix) {
  if (!options_.tenant_aware) return;
  const int64_t now = tenant_observations_++;
  const int64_t expire_before = now - options_.tenant_window_s;
  // Append this observation to each active tenant's monotonic deque.
  for (const TenantDemand& td : mix) {
    auto& peaks = tenant_peaks_[td.tenant];
    while (!peaks.empty() && peaks.back().second <= td.demand) {
      peaks.pop_back();
    }
    peaks.emplace_back(now, td.demand);
  }
  // Expire samples that fell out of the window; a tenant idle for a full
  // window drops out entirely (its deque drains because zero-demand
  // seconds append nothing).
  for (auto it = tenant_peaks_.begin(); it != tenant_peaks_.end();) {
    auto& peaks = it->second;
    while (!peaks.empty() && peaks.front().first <= expire_before) {
      peaks.pop_front();
    }
    it = peaks.empty() ? tenant_peaks_.erase(it) : ++it;
  }
}

int64_t DynamicStrategy::TenantIsolationFloor() const {
  if (!options_.tenant_aware || tenant_peaks_.empty()) return 0;
  int64_t sum_of_peaks = 0;
  for (const auto& [tenant, peaks] : tenant_peaks_) {
    sum_of_peaks += peaks.front().second;
  }
  return static_cast<int64_t>(
      std::ceil(options_.tenant_headroom * static_cast<double>(sum_of_peaks)));
}

void DynamicStrategy::Decide(const double* interval_cost,
                             const int64_t* targets) {
  // Normalize interval costs into [0, 1] penalties as *relative regret*:
  // penalty_i = (cost_i - best) / best, clamped to 1. An expert 10% more
  // expensive than the best gets 0.1 every round, so the weights
  // concentrate on the near-optimal cluster quickly; normalizing by the
  // worst expert instead would compress all useful distinctions to ~0
  // whenever one wild expert (e.g. a 20x multiplier) dominates the range.
  const size_t n = family_.size();
  double max_cost = 0.0;
  double min_cost = interval_cost[0];
  for (size_t i = 0; i < n; ++i) {
    max_cost = std::max(max_cost, interval_cost[i]);
    min_cost = std::min(min_cost, interval_cost[i]);
  }
  penalties_.assign(n, 0.0);
  if (max_cost > min_cost) {
    const double denom = min_cost > 0.0 ? min_cost : max_cost;
    for (size_t i = 0; i < n; ++i) {
      penalties_[i] = std::min(1.0, (interval_cost[i] - min_cost) / denom);
    }
  }
  mw_->Update(penalties_);
  const size_t next =
      options_.sample_expert ? mw_->Sample(&rng_) : mw_->Best();
  if (next != chosen_) ++switches_;
  chosen_ = next;
  // The meta-strategy runs every update interval (five seconds in the
  // paper); the executed target is re-computed here and held in between,
  // which keeps the fleet from churning on per-second percentile noise.
  last_target_ = targets[chosen_];
  // Decision snapshot (pure bookkeeping; must not affect the target).
  if (metrics_sink_ != nullptr) {
    metrics_sink_->AddCounter(metric_names::kStrategyUpdates, 1);
    metrics_sink_->SetCounter(metric_names::kStrategyExpertSwitches,
                              switches_);
    metrics_sink_->SetGauge(metric_names::kStrategyChosenExpert,
                            static_cast<double>(chosen_));
    metrics_sink_->SetGauge(metric_names::kStrategyChosenProbability,
                            mw_->Probability(chosen_));
    metrics_sink_->Observe(metric_names::kStrategyTarget,
                           static_cast<double>(last_target_));
  }
  if (tracer_sink_ != nullptr && tracer_sink_->enabled()) {
    const SpanId decision =
        tracer_sink_->Instant("strategy.decision", seconds_seen_ * 1000);
    tracer_sink_->Tag(decision, "expert", chosen_expert_name());
    tracer_sink_->Tag(decision, "target", std::to_string(last_target_));
    tracer_sink_->Tag(decision, "probability",
                      std::to_string(mw_->Probability(chosen_)));
  }
}

void DynamicStrategy::Play(const double* row_costs,
                           const int64_t* row_targets) {
  if (seconds_seen_ % options_.update_interval_s == 0) {
    Decide(row_costs, row_targets);
  } else {
    last_target_ = row_targets[chosen_];
  }
}

int64_t DynamicStrategy::Target(const WorkloadHistory& history) {
  // Evaluate every expert on this second: its target, and what it would
  // have cost (allocation under the known startup time + cost model).
  ++seconds_seen_;
  for (Shard& shard : shards_) {
    PriceSecond(shard, history.SortedWindow(shard.lookback_s),
                history.Latest(), seconds_seen_, row_targets_.data(),
                row_costs_.data());
  }
  if (DecisionPoint(seconds_seen_)) {
    Play(row_costs_.data(), row_targets_.data());
  }
  // Multi-tenant isolation floor: never provision below what every tenant
  // needs to replay its recent burst simultaneously. Zero (a no-op on the
  // max) unless ObserveTenantDemand was fed a mix this window.
  return std::max(last_target_, TenantIsolationFloor());
}

void DynamicStrategy::PriceSecond(Shard& shard,
                                  const std::vector<int64_t>& sorted,
                                  int64_t demand, int64_t second,
                                  int64_t* row_targets, double* row_costs) {
  const size_t width = shard.end - shard.begin;
  int64_t* targets = shard.targets.data();
  double* cost = shard.interval_cost.data();
  family_.RunTargets(shard.begin, shard.end, sorted, targets);
  shard.models.Step({targets, width}, demand, {cost, width});
  if (!DecisionPoint(second)) return;
  std::copy(targets, targets + width, row_targets + shard.begin);
  if (second % options_.update_interval_s == 0) {
    std::copy(cost, cost + width, row_costs + shard.begin);
    std::fill(cost, cost + width, 0.0);
  }
}

void DynamicStrategy::PriceBlock(Shard& shard,
                                 const std::vector<int64_t>& demand,
                                 int64_t begin, int64_t end, int64_t seen,
                                 std::vector<int64_t>* window,
                                 int64_t* row_targets, double* row_costs) {
  const size_t row_stride = family_.size();
  for (int64_t t = begin; t < end; ++t) {
    SlideSortedWindow(window, demand.data(), t + 1, shard.lookback_s);
    const int64_t second = seen + (t - begin) + 1;
    PriceSecond(shard, *window, demand[static_cast<size_t>(t)], second,
                row_targets, row_costs);
    if (DecisionPoint(second)) {
      row_targets += row_stride;
      row_costs += row_stride;
    }
  }
}

std::vector<int64_t> DynamicStrategy::TargetSeries(
    const std::vector<int64_t>& demand) {
  // The bound a fresh default WorkloadHistory enforces on every sample.
  const int64_t max_demand = std::numeric_limits<int64_t>::max() /
                             WorkloadHistory::DefaultLookbacks().back();
  for (int64_t d : demand) {
    CACKLE_CHECK_GE(d, 0);
    CACKLE_CHECK_LE(d, max_demand) << "demand would overflow a window sum";
  }
  const int64_t n = static_cast<int64_t>(demand.size());
  std::vector<int64_t> played(demand.size());
  if (n == 0) return played;
  const int64_t interval = options_.update_interval_s;
  const size_t row_stride = family_.size();
  // Seconds [begin, end) of `demand`, the first the strategy's second
  // seen + 1, ending on its kBlockIntervals-th update boundary (or at the
  // series end). Its rows hold at most that many boundaries plus the
  // strategy's first second.
  struct Block {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t seen = 0;
    std::vector<int64_t> row_targets;
    std::vector<double> row_costs;
  };
  // Everything the shards write is allocated here, on the calling thread:
  // pool threads that allocated would each grow a malloc arena of their
  // own.
  Block blocks[2];
  for (Block& block : blocks) {
    block.row_targets.resize((kBlockIntervals + 1) * row_stride);
    block.row_costs.resize((kBlockIntervals + 1) * row_stride);
  }
  std::vector<std::vector<int64_t>> windows(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    windows[k].reserve(
        static_cast<size_t>(std::min(n, shards_[k].lookback_s)));
  }
  ThreadPool pool(kPricingThreads);
  TaskGroup group(&pool, "strategy");
  const auto price = [&](Block* block, int64_t begin, int64_t seen) {
    block->begin = begin;
    block->seen = seen;
    block->end = std::min(
        n, begin + (seen / interval + kBlockIntervals) * interval - seen);
    for (size_t k = 0; k < shards_.size(); ++k) {
      group.Submit([this, &demand, &windows, block, k] {
        PriceBlock(shards_[k], demand, block->begin, block->end, block->seen,
                   &windows[k], block->row_targets.data(),
                   block->row_costs.data());
      });
    }
  };
  // The shards price the next block while the calling thread runs this
  // block's decisions in interval order: they share no state.
  const int64_t floor = TenantIsolationFloor();
  price(&blocks[0], 0, seconds_seen_);
  group.Wait();
  for (size_t k = 0;; ++k) {
    const Block& block = blocks[k % 2];
    if (block.end < n) {
      price(&blocks[(k + 1) % 2], block.end,
            block.seen + (block.end - block.begin));
    }
    size_t row = 0;
    for (int64_t t = block.begin; t < block.end; ++t) {
      ++seconds_seen_;
      if (DecisionPoint(seconds_seen_)) {
        Play(block.row_costs.data() + row * row_stride,
             block.row_targets.data() + row * row_stride);
        ++row;
      }
      played[static_cast<size_t>(t)] = std::max(last_target_, floor);
    }
    group.Wait();
    if (block.end == n) break;
  }
  return played;
}

}  // namespace cackle
