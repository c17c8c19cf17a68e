#include "strategy/dynamic_strategy.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/metric_names.h"
#include "common/thread_pool.h"
#include "common/tracer.h"

namespace cackle {

namespace {
/// Rows of the decision row ring: TargetSeries publishes up to this many
/// decision points ahead of the one it plays.
constexpr int64_t kRows = 64;
/// Seconds the demand ring holds beyond the longest lookback: how far
/// publishing may run ahead of the slowest shard.
constexpr int64_t kSlack = 512;
/// Spin-waiting, in pauses of roughly 20 ns on current x86 cores. A worker
/// polls the published count kWorkerPauses times (~0.35 ms, longer than
/// most gaps between an engine's coordinator ticks), then yields between
/// polls kWorkerYields times, then parks. At a decision point the calling
/// thread polls a shard up to kGracePauses times (~90 µs, far longer than
/// a running worker takes to price one second) before pricing it itself.
constexpr int kWorkerPauses = 1 << 14;
constexpr int kWorkerYields = 1 << 7;
constexpr int kGracePauses = 1 << 12;
/// Elements of a shard scratch array that fill one 64-byte cache line.
constexpr size_t kLineSlack = 64 / sizeof(int64_t);
/// Observations a tenant's demand peak stays in the isolation floor.
constexpr int64_t kTenantWindowS = 60;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

int64_t RoundUpPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Whether the strategy's `second` (1-based) is a decision point: an update
/// boundary, or its first second, when the played target is set.
bool DecisionPoint(int64_t second) {
  return second % DynamicStrategy::kUpdateIntervalS == 0 || second == 1;
}
/// Decision points among the strategy's seconds [1, second], second >= 1.
int64_t DecisionsThrough(int64_t second) {
  return second / DynamicStrategy::kUpdateIntervalS + 1;
}
/// The strategy second of its k-th decision point, k >= 1.
int64_t DecisionSecond(int64_t k) {
  return k == 1 ? 1 : (k - 1) * DynamicStrategy::kUpdateIntervalS;
}
}  // namespace

DynamicStrategy::DynamicStrategy(const CostModel* cost,
                                 const DynamicStrategyOptions& options)
    : cost_(cost), env_(*cost),
      family_(BuildPercentileFamily(options.family)), rng_(options.seed) {
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
                            AllocationModel(&env_, end - begin),
                            {},
                            std::vector<int64_t>(padded, 0),
                            std::vector<double>(padded, 0.0)});
  }
  mw_ = std::make_unique<MultiplicativeWeights>(family_.size(), kEpsilon,
                                                kWeightFloorRatio);
  chosen_ = family_.size() / 2;  // arbitrary deterministic initial expert
}

DynamicStrategy::~DynamicStrategy() {
  if (loops_ == nullptr) return;
  {
    MutexLock lock(&park_mu_);
    stop_ = true;
  }
  park_cv_.NotifyAll();
  loops_->Wait();
}

std::string DynamicStrategy::chosen_expert_name() const {
  return family_.Expert(chosen_).name();
}

double DynamicStrategy::ExpertCost(size_t i) const {
  CACKLE_CHECK_LT(i, family_.size());
  for (size_t k = 0; clocks_ != nullptr && k < shards_.size(); ++k) {
    while (clocks_[k].priced.load(std::memory_order_acquire) < published_s_) {
      std::this_thread::yield();
    }
  }
  for (const Shard& shard : shards_) {
    if (i < shard.end) return shard.models.total_cost(i - shard.begin);
  }
  __builtin_unreachable();
}

void DynamicStrategy::SetObservability(MetricsRegistry* metrics,
                                       Tracer* tracer) {
  metrics_sink_ = metrics;
  tracer_sink_ = tracer;
  updates_ = nullptr;
}

void DynamicStrategy::ObserveTenantDemand(
    const std::vector<TenantDemand>& mix) {
  const int64_t now = tenant_observations_++;
  const int64_t expire_before = now - kTenantWindowS;
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
  int64_t sum_of_peaks = 0;
  for (const auto& [tenant, peaks] : tenant_peaks_) {
    sum_of_peaks += peaks.front().second;
  }
  return sum_of_peaks;
}

void DynamicStrategy::Decide(const double* interval_cost,
                             const int64_t* targets) {
  // Normalize interval costs into [0, 1] penalties as *relative regret*:
  // penalty_i = (cost_i - best) / best, clamped to 1. An expert 10% more
  // expensive than the best gets 0.1 every round, so the weights
  // concentrate on the near-optimal cluster quickly; normalizing by the
  // worst expert instead would compress all useful distinctions to ~0
  // whenever one wild expert (e.g. a 20x multiplier) dominates the range.
  // Minima and maxima are exact in any order, so four independent running
  // extrema share the scan.
  const size_t n = family_.size();
  const double* c = interval_cost;
  double max0 = 0.0, max1 = 0.0, max2 = 0.0, max3 = 0.0;
  double min0 = c[0], min1 = c[0], min2 = c[0], min3 = c[0];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    max0 = std::max(max0, c[i]);
    max1 = std::max(max1, c[i + 1]);
    max2 = std::max(max2, c[i + 2]);
    max3 = std::max(max3, c[i + 3]);
    min0 = std::min(min0, c[i]);
    min1 = std::min(min1, c[i + 1]);
    min2 = std::min(min2, c[i + 2]);
    min3 = std::min(min3, c[i + 3]);
  }
  for (; i < n; ++i) {
    max0 = std::max(max0, c[i]);
    min0 = std::min(min0, c[i]);
  }
  const double max_cost = std::max(std::max(max0, max1), std::max(max2, max3));
  const double min_cost = std::min(std::min(min0, min1), std::min(min2, min3));
  penalties_.assign(n, 0.0);
  if (max_cost > min_cost) {
    const double denom = min_cost > 0.0 ? min_cost : max_cost;
    for (i = 0; i < n; ++i) {
      penalties_[i] = std::min(1.0, (interval_cost[i] - min_cost) / denom);
    }
  }
  mw_->Update(penalties_);
  const size_t next = mw_->Sample(&rng_);
  if (next != chosen_) ++switches_;
  chosen_ = next;
  // The meta-strategy runs every update interval (five seconds in the
  // paper); the executed target is re-computed here and held in between,
  // which keeps the fleet from churning on per-second percentile noise.
  last_target_ = targets[chosen_];
  // Decision snapshot (pure bookkeeping; must not affect the target). The
  // handles are looked up at the first decision, in this order, which is
  // when and how the sink first sees them.
  if (metrics_sink_ != nullptr) {
    if (updates_ == nullptr) {
      updates_ = metrics_sink_->GetCounter(metric_names::kStrategyUpdates);
      switches_counter_ =
          metrics_sink_->GetCounter(metric_names::kStrategyExpertSwitches);
      chosen_gauge_ =
          metrics_sink_->GetGauge(metric_names::kStrategyChosenExpert);
      probability_gauge_ =
          metrics_sink_->GetGauge(metric_names::kStrategyChosenProbability);
      target_histogram_ =
          metrics_sink_->GetHistogram(metric_names::kStrategyTarget);
    }
    updates_->Increment(1);
    switches_counter_->Set(switches_);
    chosen_gauge_->Set(static_cast<double>(chosen_));
    probability_gauge_->Set(mw_->Probability(chosen_));
    target_histogram_->Observe(static_cast<double>(last_target_));
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

size_t DynamicStrategy::RowOffset(int64_t second) const {
  return static_cast<size_t>((DecisionsThrough(second) - 1) % rows_) *
         family_.size();
}

void DynamicStrategy::Play() {
  const size_t row = RowOffset(seconds_seen_);
  if (seconds_seen_ % kUpdateIntervalS == 0) {
    Decide(row_costs_.get() + row, row_targets_.get() + row);
  } else {
    last_target_ = row_targets_[row + chosen_];
  }
}

int64_t DynamicStrategy::Target(const WorkloadHistory& history) {
  CACKLE_CHECK_EQ(history.size(), seconds_seen_ + 1)
      << "Target() takes one newly appended second per call";
  const int64_t demand = history.Latest();
  Publish(&demand, 1);
  ++seconds_seen_;
  if (DecisionPoint(seconds_seen_)) {
    CatchUp(seconds_seen_);
    Play();
  }
  // Multi-tenant isolation floor: never provision below what every tenant
  // needs to replay its recent burst simultaneously. Zero (a no-op on the
  // max) unless ObserveTenantDemand was fed a mix this window.
  return std::max(last_target_, TenantIsolationFloor());
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
  // demand[t] is the strategy's second base + t + 1; every second before
  // it is published.
  const int64_t base = seconds_seen_;
  const int64_t end = base + n;
  const auto publish_through = [&](int64_t through) {
    if (through <= published_s_) return;
    Publish(demand.data() + (published_s_ - base), through - published_s_);
  };
  if (n > 0 && !started_) StartPricing();
  // The whole series is known: the workers share out every shard, and
  // this thread prices too when a decision finds its row not ready. Every
  // decision published so far is played, so the row ring may change size
  // (no shard writes a row until the next decision point is published).
  rows_ = kRows;
  if (threaded_) sharing_.store(true, std::memory_order_release);
  const int64_t floor = TenantIsolationFloor();
  for (int64_t t = 0; t < n; ++t) {
    ++seconds_seen_;
    if (DecisionPoint(seconds_seen_)) {
      // Publish half a row ring at a time, so that every claim of a shard
      // prices a long run of seconds: through the second before the
      // decision point whose row would overwrite this one's.
      const int64_t decision = DecisionsThrough(seconds_seen_);
      if (published_s_ < DecisionSecond(decision + kRows / 2)) {
        publish_through(
            std::min(end, DecisionSecond(decision + kRows) - 1));
      }
      for (size_t k = 0; threaded_ && k < shards_.size(); ++k) {
        ShardClock& clock = clocks_[k];
        while (clock.priced.load(std::memory_order_acquire) <
                   seconds_seen_ &&
               !TryPriceShard(k, published_s_)) {
          // A worker holds the shard: price another one that is behind
          // rather than spin.
          if (!PriceAnyBehind()) CpuRelax();
        }
      }
      Play();
    }
    played[static_cast<size_t>(t)] = std::max(last_target_, floor);
  }
  publish_through(end);
  if (threaded_) sharing_.store(false, std::memory_order_release);
  rows_ = 1;
  return played;
}

void DynamicStrategy::StartPricing() {
  started_ = true;
  // Everything the shards write is allocated here, on the calling thread:
  // pool threads that allocated would each grow a malloc arena of their
  // own.
  int64_t longest = 1;
  for (Shard& shard : shards_) {
    shard.window.reserve(static_cast<size_t>(shard.lookback_s));
    longest = std::max(longest, shard.lookback_s);
  }
  series_.assign(static_cast<size_t>(RoundUpPow2(longest + kSlack)), 0);
  series_mask_ = static_cast<int64_t>(series_.size()) - 1;
  // Default-initialized: Target() uses one row, so the others' pages stay
  // untouched until a TargetSeries call.
  const size_t row_cells = static_cast<size_t>(kRows) * family_.size();
  row_targets_.reset(new int64_t[row_cells]);
  row_costs_.reset(new double[row_cells]);
  clocks_ = std::make_unique<ShardClock[]>(shards_.size());
  priced_seen_.assign(shards_.size(), 0);
  // On a pool task (a sweep cell, say) this thread prices every second
  // itself: a sweep already runs as many cells at once as it has threads,
  // and two pricing workers per cell would oversubscribe the cores. At one
  // sweep thread the cells therefore price serially.
  if (ThreadPool::RunningTask()) return;
  threaded_ = true;
  pool_ = std::make_unique<ThreadPool>(static_cast<int>(kPricingThreads));
  loops_ = std::make_unique<TaskGroup>(pool_.get(), "strategy");
  for (size_t w = 0; w < kPricingThreads; ++w) {
    loops_->Submit([this, w] { PricingLoop(w); });
  }
}

void DynamicStrategy::Publish(const int64_t* demand, int64_t count) {
  if (!started_) StartPricing();
  if (!(*cost_ == env_)) {
    // The environment changed: the seconds published so far price under
    // the old one, which the shards read until they are done with them.
    CatchUp(published_s_);
    env_ = *cost_;
  }
  while (count > 0) {
    const int64_t chunk = std::min(count, kSlack);
    // The ring overwrites the samples of kSlack + the longest lookback
    // seconds ago; a shard still reads them until it is priced through
    // kSlack seconds ago.
    if (published_s_ + chunk - kSlack > caught_up_) {
      CatchUp(published_s_ + chunk - kSlack);
    }
    for (int64_t i = 0; i < chunk; ++i) {
      series_[static_cast<size_t>((published_s_ + i) & series_mask_)] =
          demand[i];
    }
    published_s_ += chunk;
    demand += chunk;
    count -= chunk;
    if (!threaded_) {
      for (size_t k = 0; k < shards_.size(); ++k) {
        TryPriceShard(k, published_s_);
      }
      continue;
    }
    // Sequentially consistent, pairing with AwaitPublished: either a
    // parking worker sees the new count, or this thread sees it parked.
    published_.store(published_s_, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      MutexLock lock(&park_mu_);
      park_cv_.NotifyAll();
    }
  }
}

void DynamicStrategy::CatchUp(int64_t second) {
  if (!threaded_) return;
  int pauses = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    ShardClock& clock = clocks_[k];
    int64_t priced = clock.priced.load(std::memory_order_acquire);
    // No thread has priced the shard since the last catch-up although it
    // had seconds waiting: its worker is not running (descheduled, or
    // placed on this thread's core), so waiting out the grace period
    // would only add to the cost of pricing it here.
    const bool stalled =
        priced == priced_seen_[k] && published_s_ > priced + 1;
    while (priced < second) {
      if ((stalled || pauses >= kGracePauses) &&
          !clock.claimed.load(std::memory_order_relaxed) &&
          TryPriceShard(k, second)) {
        break;
      }
      CpuRelax();
      ++pauses;
      priced = clock.priced.load(std::memory_order_acquire);
    }
    priced_seen_[k] = clock.priced.load(std::memory_order_relaxed);
  }
  caught_up_ = std::max(caught_up_, second);
}

bool DynamicStrategy::TryPriceShard(size_t k, int64_t through) {
  ShardClock& clock = clocks_[k];
  if (clock.claimed.exchange(true, std::memory_order_acquire)) return false;
  const int64_t from = clock.priced.load(std::memory_order_relaxed);
  for (int64_t second = from + 1; second <= through; ++second) {
    PriceSecond(shards_[k], second);
  }
  if (through > from) clock.priced.store(through, std::memory_order_release);
  clock.claimed.store(false, std::memory_order_release);
  return true;
}

bool DynamicStrategy::PriceAnyBehind() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    ShardClock& clock = clocks_[k];
    if (clock.priced.load(std::memory_order_acquire) < published_s_ &&
        !clock.claimed.load(std::memory_order_relaxed) &&
        TryPriceShard(k, published_s_)) {
      return true;
    }
  }
  return false;
}

void DynamicStrategy::PricingLoop(size_t w) {
  int64_t published = 0;
  for (;;) {
    if (sharing_.load(std::memory_order_acquire)) {
      // Any shard that is free, starting from a different one per worker.
      for (size_t i = 0; i < shards_.size(); ++i) {
        const size_t k = (i + w * shards_.size() / kPricingThreads) %
                         shards_.size();
        if (clocks_[k].priced.load(std::memory_order_acquire) < published) {
          TryPriceShard(k, published);
        }
      }
    } else {
      // A lane shard the calling thread holds is priced through at most
      // this count when it lets go: come back for the rest.
      bool behind = false;
      for (size_t k = w; k < shards_.size(); k += kPricingThreads) {
        if (clocks_[k].priced.load(std::memory_order_acquire) < published &&
            !TryPriceShard(k, published)) {
          behind = true;
        }
      }
      if (behind) {
        CpuRelax();
        continue;
      }
    }
    published = AwaitPublished(published);
    if (published < 0) return;
  }
}

int64_t DynamicStrategy::AwaitPublished(int64_t seen) {
  for (int polls = 0; polls < kWorkerPauses + kWorkerYields; ++polls) {
    const int64_t published = published_.load(std::memory_order_acquire);
    if (published != seen) return published;
    if (polls < kWorkerPauses) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  MutexLock lock(&park_mu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  while (!stop_ && published_.load(std::memory_order_seq_cst) == seen) {
    park_cv_.Wait(park_mu_);
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
  if (stop_) return -1;
  return published_.load(std::memory_order_acquire);
}

void DynamicStrategy::PriceSecond(Shard& shard, int64_t second) {
  const int64_t demand =
      series_[static_cast<size_t>((second - 1) & series_mask_)];
  const bool full = second > shard.lookback_s;
  const int64_t evicted =
      full ? series_[static_cast<size_t>((second - 1 - shard.lookback_s) &
                                         series_mask_)]
           : 0;
  SlideSortedWindow(&shard.window, demand, full, evicted);
  const size_t width = shard.end - shard.begin;
  int64_t* targets = shard.targets.data();
  double* cost = shard.interval_cost.data();
  family_.RunTargets(shard.begin, shard.end, shard.window, targets);
  shard.models.Step({targets, width}, demand, {cost, width});
  if (!DecisionPoint(second)) return;
  const size_t row = RowOffset(second) + shard.begin;
  std::copy(targets, targets + width, row_targets_.get() + row);
  if (second % kUpdateIntervalS == 0) {
    std::copy(cost, cost + width, row_costs_.get() + row);
    std::fill(cost, cost + width, 0.0);
  }
}

}  // namespace cackle
