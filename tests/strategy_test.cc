#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "strategy/allocation_model.h"
#include "strategy/cost_calculator.h"
#include "strategy/dynamic_strategy.h"
#include "strategy/multiplicative_weights.h"
#include "strategy/oracle.h"
#include "strategy/shuffle_provisioner.h"
#include "strategy/strategy.h"
#include "strategy/workload_history.h"
#include "workload/trace_generator.h"

namespace cackle {
namespace {

// ---------------------------------------------------------------------------
// WorkloadHistory
// ---------------------------------------------------------------------------

TEST(WorkloadHistoryTest, PercentileOverWindowMatchesBruteForce) {
  WorkloadHistory history({10, 60});
  Rng rng(1);
  std::vector<int64_t> raw;
  for (int i = 0; i < 500; ++i) {
    const int64_t d = static_cast<int64_t>(rng.NextBounded(1000));
    history.Append(d);
    raw.push_back(d);
    for (int64_t lb : {int64_t{10}, int64_t{60}}) {
      const int64_t n = std::min<int64_t>(lb, static_cast<int64_t>(raw.size()));
      std::vector<int64_t> window(raw.end() - n, raw.end());
      std::sort(window.begin(), window.end());
      for (double p : {10.0, 50.0, 80.0, 100.0}) {
        int64_t rank = static_cast<int64_t>(
            (p / 100.0) * static_cast<double>(n) + 0.9999999);
        rank = std::clamp<int64_t>(rank, 1, n);
        ASSERT_EQ(history.Percentile(lb, p),
                  window[static_cast<size_t>(rank - 1)])
            << "i=" << i << " lb=" << lb << " p=" << p;
      }
      ASSERT_EQ(history.Max(lb), window.back());
      double sum = 0;
      for (int64_t v : window) sum += static_cast<double>(v);
      ASSERT_NEAR(history.Mean(lb), sum / static_cast<double>(n), 1e-9);
    }
  }
}

TEST(WorkloadHistoryTest, EmptyHistoryReturnsZero) {
  WorkloadHistory history;
  EXPECT_EQ(history.Percentile(60, 50), 0);
  EXPECT_EQ(history.Latest(), 0);
  EXPECT_DOUBLE_EQ(history.Mean(300), 0.0);
}

TEST(WorkloadHistoryTest, KeepsHugeDemandExactly) {
  // Windows have no value domain: a demand far above 2^20 is stored as is
  // and reported by every aggregate, never clamped.
  const int64_t huge = (int64_t{1} << 40) + 3;
  WorkloadHistory history({10});
  history.Append(5);
  history.Append(huge);
  EXPECT_EQ(history.Latest(), huge);
  EXPECT_EQ(history.Max(10), huge);
  EXPECT_EQ(history.Percentile(10, 100.0), huge);
  EXPECT_EQ(history.Percentile(10, 50.0), 5);
  for (int i = 0; i < 10; ++i) history.Append(huge);
  EXPECT_EQ(history.Percentile(10, 1.0), huge);
  EXPECT_DOUBLE_EQ(history.Mean(10), static_cast<double>(huge));
}

TEST(WorkloadHistoryTest, SortedWindowHoldsTrailingSamples) {
  WorkloadHistory history({3, 5});
  for (int64_t d : {7, 1, 9, 1, 4, 8, 0}) history.Append(d);
  EXPECT_EQ(history.SortedWindow(3), (std::vector<int64_t>{0, 4, 8}));
  EXPECT_EQ(history.SortedWindow(5), (std::vector<int64_t>{0, 1, 4, 8, 9}));
}

TEST(WorkloadHistoryTest, LazySortedWindowMatchesBruteForce) {
  // A lookback's sorted window is built on its first request. Requested
  // first while the window fills, exactly when it is full, and after it
  // has started to slide, it then tracks the trailing samples for two
  // full lookbacks.
  constexpr int64_t kLookback = 50;
  for (const int64_t first_request : {int64_t{20}, kLookback, int64_t{80}}) {
    WorkloadHistory history({kLookback, 300});
    Rng rng(static_cast<uint64_t>(first_request));
    std::vector<int64_t> raw;
    const auto append = [&] {
      const int64_t d = static_cast<int64_t>(rng.NextBounded(40));
      history.Append(d);
      raw.push_back(d);
    };
    for (int64_t s = 0; s < first_request; ++s) append();
    for (int64_t s = 0; s <= 2 * kLookback; ++s) {
      const int64_t n =
          std::min<int64_t>(kLookback, static_cast<int64_t>(raw.size()));
      std::vector<int64_t> window(raw.end() - n, raw.end());
      std::sort(window.begin(), window.end());
      ASSERT_EQ(history.SortedWindow(kLookback), window)
          << "first request " << first_request << " second " << raw.size();
      ASSERT_EQ(history.Max(kLookback), window.back());
      ASSERT_EQ(history.Percentile(kLookback, 50.0),
                SortedPercentile(window, 50.0));
      append();
    }
  }
}

TEST(WorkloadHistoryTest, UnregisteredLookbackMeanFallsBack) {
  WorkloadHistory history({10});
  for (int i = 1; i <= 20; ++i) history.Append(i);
  // Mean over an unregistered 5-second lookback: (16..20)/5 = 18.
  EXPECT_DOUBLE_EQ(history.Mean(5), 18.0);
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

TEST(StrategyTest, FixedIgnoresHistory) {
  FixedStrategy s(500);
  WorkloadHistory history;
  EXPECT_EQ(s.Target(history), 500);
  history.Append(10'000);
  EXPECT_EQ(s.Target(history), 500);
  EXPECT_EQ(s.name(), "fixed_500");
}

TEST(StrategyTest, MeanMultiplies) {
  MeanStrategy s(2.0, 300);
  WorkloadHistory history;
  for (int i = 0; i < 10; ++i) history.Append(50);
  EXPECT_EQ(s.Target(history), 100);
  EXPECT_EQ(s.name(), "mean_2");
}

TEST(StrategyTest, PercentileStrategyNameAndTarget) {
  PercentileStrategy s(60, 80.0, 1.5);
  WorkloadHistory history;
  for (int64_t d = 1; d <= 100; ++d) history.Append(d);
  // p80 over the last 60 samples (41..100) = 88; x1.5 -> 132.
  EXPECT_EQ(s.Target(history), 132);
  EXPECT_EQ(s.name(), "p80_x1.50_lb60");
}

TEST(StrategyTest, PredictiveExtrapolatesRisingLoad) {
  CostModel cost;
  PredictiveStrategy s(cost.vm_startup_ms, 300);
  WorkloadHistory history;
  for (int i = 0; i < 100; ++i) history.Append(10 * i);  // slope 10/s
  // Prediction at now ~ 990; at now + 180 s, ~ 990 + 1800.
  const int64_t target = s.Target(history);
  EXPECT_NEAR(static_cast<double>(target), 990.0 + 1800.0, 30.0);
}

TEST(StrategyTest, PredictiveFallingLoadUsesCurrent) {
  CostModel cost;
  PredictiveStrategy s(cost.vm_startup_ms, 300);
  WorkloadHistory history;
  for (int i = 100; i > 0; --i) history.Append(10 * i);
  const int64_t target = s.Target(history);
  // Falling slope: the max of fitted now vs horizon is the fitted "now".
  EXPECT_NEAR(static_cast<double>(target), 10.0, 30.0);
  EXPECT_GE(target, 0);
}

/// The predictive strategy as FitLine over copied windows: the reference
/// for its in-place fit.
int64_t ReferencePredictiveTarget(const WorkloadHistory& history,
                                  int64_t horizon_s, int64_t lookback_s) {
  const int64_t n = std::min<int64_t>(history.size(), lookback_s);
  if (n == 0) return 0;
  std::vector<double> xs;
  std::vector<double> ys;
  const int64_t start = history.size() - n;
  for (int64_t i = 0; i < n; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(static_cast<double>(history.At(start + i)));
  }
  const LinearFit fit = FitLine(xs, ys);
  const double target =
      std::max(fit.At(static_cast<double>(n - 1)),
               fit.At(static_cast<double>(n - 1 + horizon_s)));
  return std::max<int64_t>(0, static_cast<int64_t>(std::ceil(target)));
}

TEST(StrategyTest, PredictiveMatchesFitLineExactly) {
  // Small demand, demand whose window sums pass 2^53 (the in-place fit
  // then sums as doubles, like FitLine) and demand in between.
  CostModel cost;
  PredictiveStrategy predictive(cost.vm_startup_ms, 300);
  Rng rng(17);
  for (const int64_t scale :
       {int64_t{1000}, int64_t{1} << 44, int64_t{1} << 50}) {
    WorkloadHistory history;
    int64_t level = scale / 2;
    for (int s = 0; s < 900; ++s) {
      level = std::clamp<int64_t>(
          level + rng.NextInt(-scale / 20, scale / 20), 0, scale);
      history.Append(level);
      ASSERT_EQ(predictive.Target(history),
                ReferencePredictiveTarget(history, 180, 300))
          << "scale " << scale << " second " << s;
    }
  }
}

TEST(StrategyTest, FamilyHasSeveralHundredExperts) {
  const PercentileFamily family = BuildPercentileFamily();
  // 6 lookbacks x (100 percentiles + 11 boosted multipliers) = 666.
  EXPECT_EQ(family.size(), 666u);
  // Family includes strategies that provision above anything in history
  // (multiplier > 1), required for increasing workloads (Section 4.4.5).
  bool has_boost = false;
  for (size_t i = 0; i < family.size(); ++i) {
    if (family.multiplier[i] > 1.0) has_boost = true;
  }
  EXPECT_TRUE(has_boost);
  EXPECT_EQ(family.Expert(0).name(), "p1_lb10");
  EXPECT_EQ(family.Expert(665).name(), "p80_x20.00_lb3600");
}

/// Differential: the batched table's target for every expert equals the
/// standalone PercentileStrategy's, on an empty history, windows shorter
/// than their lookback, all-equal and all-zero demand, and values > 2^20.
class PercentileFamilyDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PercentileFamilyDifferentialTest, BatchedTargetsMatchStandalone) {
  PercentileFamily family = BuildPercentileFamily();
  Rng rng(GetParam());
  WorkloadHistory history;
  std::vector<int64_t> targets;
  const auto expect_all_equal = [&](const char* phase) {
    family.Targets(history, &targets);
    ASSERT_EQ(targets.size(), family.size());
    for (size_t i = 0; i < family.size(); ++i) {
      PercentileStrategy expert = family.Expert(i);
      ASSERT_EQ(targets[i], expert.Target(history))
          << phase << " expert " << expert.name() << " at second "
          << history.size();
    }
  };
  expect_all_equal("empty");
  // Phases of 1500 s each: a random walk, constant zero, constant value,
  // then a wide walk above 2^20; the 1 h window spans phase boundaries.
  const char* const phases[] = {"walk", "zero", "constant", "above 2^20"};
  int64_t walk = 50;
  for (int64_t s = 0; s < 6000; ++s) {
    int64_t demand = 0;
    const int64_t phase = s / 1500;
    switch (phase) {
      case 0:
        walk = std::max<int64_t>(0, walk + rng.NextInt(-15, 15));
        demand = walk;
        break;
      case 1:
        demand = 0;
        break;
      case 2:
        demand = 37;
        break;
      default:
        demand = (int64_t{1} << 20) + rng.NextInt(0, 1 << 22);
        break;
    }
    history.Append(demand);
    if (s < 20 || s % 97 == 0 || s % 1500 == 1499) {
      expect_all_equal(phases[phase]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileFamilyDifferentialTest,
                         ::testing::Values(1, 2, 3));

TEST(PercentileFamilyTest, SamplesAboveTwoTo53MatchStandalone) {
  // Above 2^53 a sample is no longer an exact double, so even a
  // multiplier-1 target must round through ceil(double(v) * 1.0) like the
  // standalone strategy. Short lookbacks keep the window sums inside int64.
  FamilyOptions options;
  options.lookbacks_s = {10, 60, 300};
  PercentileFamily family = BuildPercentileFamily(options);
  WorkloadHistory history(options.lookbacks_s);
  Rng rng(5);
  std::vector<int64_t> targets;
  for (int s = 0; s < 400; ++s) {
    history.Append((int64_t{1} << 53) + rng.NextInt(0, 1 << 22));
    family.Targets(history, &targets);
    for (size_t i = 0; i < family.size(); ++i) {
      ASSERT_EQ(targets[i], family.Expert(i).Target(history))
          << family.Expert(i).name() << " at second " << s;
    }
  }
}

std::vector<int64_t> SinusoidDemand(int64_t seconds, int64_t period_s,
                                    double mean) {
  std::vector<int64_t> demand(static_cast<size_t>(seconds));
  for (int64_t s = 0; s < seconds; ++s) {
    const double v =
        mean * (1.0 + std::sin(2.0 * M_PI * static_cast<double>(s) /
                               static_cast<double>(period_s)));
    demand[static_cast<size_t>(s)] = static_cast<int64_t>(std::max(0.0, v));
  }
  return demand;
}

// ---------------------------------------------------------------------------
// AllocationModel vs a brute-force reference
// ---------------------------------------------------------------------------

/// Straightforward per-VM reference implementation of the allocation and
/// billing rules, used to validate the incremental model. Like the model,
/// it re-reads the environment every second.
struct ReferenceAllocation {
  explicit ReferenceAllocation(const CostModel* cost) : cost(cost) {}

  struct Vm {
    int64_t started;
  };

  const CostModel* cost;
  int64_t startup_s = 0;
  int64_t min_billing_s = 0;
  double vm_price = 0;
  double elastic_price = 0;
  std::deque<std::pair<int64_t, int64_t>> pending;  // (ready, count)
  std::deque<Vm> running;
  double vm_cost = 0, elastic_cost = 0;
  /// Sum of every second's (VM + elastic) cost.
  double accrued = 0;
  int64_t vm_seconds = 0;
  int64_t now = 0;

  int64_t allocated() const {
    int64_t p = 0;
    for (auto& [r, c] : pending) p += c;
    return p + static_cast<int64_t>(running.size());
  }

  int64_t Step(int64_t target, int64_t demand) {
    startup_s = cost->vm_startup_ms / 1000;
    min_billing_s = cost->vm_min_billing_ms / 1000;
    vm_price = cost->VmCostPerSecond();
    elastic_price = cost->ElasticCostPerSecond();
    while (!pending.empty() && pending.front().first <= now) {
      for (int64_t i = 0; i < pending.front().second; ++i) {
        running.push_back({now});
      }
      pending.pop_front();
    }
    if (target > allocated()) {
      if (startup_s == 0) {
        for (int64_t i = allocated(); i < target; ++i) running.push_back({now});
      } else {
        pending.emplace_back(now + startup_s, target - allocated());
      }
    } else {
      int64_t excess = allocated() - target;
      while (excess > 0 && !pending.empty()) {
        auto& [r, c] = pending.back();
        const int64_t cancel = std::min(c, excess);
        c -= cancel;
        excess -= cancel;
        if (c == 0) pending.pop_back();
      }
      int64_t idle =
          static_cast<int64_t>(running.size()) - std::min<int64_t>(
              demand, static_cast<int64_t>(running.size()));
      // Terminate only idle VMs that met their minimum billing time.
      while (excess > 0 && idle > 0 && !running.empty() &&
             now - running.front().started >= min_billing_s) {
        running.pop_front();
        --idle;
        --excess;
      }
    }
    const int64_t avail = static_cast<int64_t>(running.size());
    const double vm = static_cast<double>(avail) * vm_price;
    const double elastic =
        static_cast<double>(std::max<int64_t>(0, demand - avail)) *
        elastic_price;
    vm_cost += vm;
    elastic_cost += elastic;
    accrued += vm + elastic;
    vm_seconds += avail;
    ++now;
    return avail;
  }

  void Finish() {
    pending.clear();
    while (!running.empty()) {
      const Vm vm = running.front();
      running.pop_front();
      if (now - vm.started < min_billing_s) {
        vm_cost += static_cast<double>(min_billing_s - (now - vm.started)) *
                   vm_price;
        vm_seconds += min_billing_s - (now - vm.started);
      }
    }
  }
};

class AllocationModelPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(AllocationModelPropertyTest, MatchesReferenceOnRandomTraces) {
  CostModel cost;
  Rng rng(GetParam());
  // Randomize the environment too: startup 0..4 min, forced to 0 (rises
  // start VMs the same second) for seeds 11, 66, 71 and 86; even seeds
  // drive targets up to 10^5 VMs.
  cost.vm_startup_ms = GetParam() % 5 == 1 ? 0 : rng.NextInt(0, 4) * 60'000;
  const int64_t max_target = GetParam() % 2 == 0 ? 100'000 : 120;
  AllocationModel model(&cost);
  ReferenceAllocation ref(&cost);
  int64_t demand = max_target / 2;
  int64_t target = 0;
  const int64_t step_s = std::max<int64_t>(20, max_target / 100);
  for (int s = 0; s < 3000; ++s) {
    demand = std::clamp<int64_t>(demand + rng.NextInt(-step_s, step_s), 0,
                                 max_target);
    if (s % 7 == 0) target = rng.NextInt(0, max_target);
    // End on a run of rises a few seconds apart, so Finish() settles
    // several batches still inside their minimum billing time.
    if (s >= 2950 && s % 5 == 0) target += rng.NextInt(1, 50);
    const auto step = model.Step(target, demand);
    const int64_t ref_avail = ref.Step(target, demand);
    ASSERT_EQ(step.available, ref_avail) << "second " << s;
  }
  const int64_t vm_seconds_before_finish = model.total_vm_seconds();
  model.Finish();
  ref.Finish();
  if (cost.vm_startup_ms == 0) {
    // The closing rises left young VMs that owe minimum billing.
    EXPECT_GT(model.total_vm_seconds(), vm_seconds_before_finish);
  }
  // Bit-exact: the batched model adds every per-second charge and every
  // per-VM minimum-billing penalty in the reference's order.
  EXPECT_EQ(model.vm_cost(), ref.vm_cost);
  EXPECT_EQ(model.elastic_cost(), ref.elastic_cost);
  EXPECT_EQ(model.total_vm_seconds(), ref.vm_seconds);
}

TEST_P(AllocationModelPropertyTest, BatchMatchesReferencesInLockstep) {
  // A batch of models against as many references. Targets are mostly
  // steady with a few changes per second, so most models take the
  // billing-only path each second and a few apply batch work; the VM price
  // and the startup delay (including 0) change along the way.
  CostModel cost;
  Rng rng(GetParam() * 7919);
  cost.vm_startup_ms = GetParam() % 5 == 1 ? 0 : rng.NextInt(1, 4) * 60'000;
  constexpr size_t kModels = 48;
  const int64_t max_target = GetParam() % 2 == 0 ? 5'000 : 120;
  AllocationModel batch(&cost, kModels);
  ASSERT_EQ(batch.size(), kModels);
  std::vector<ReferenceAllocation> refs(kModels, ReferenceAllocation(&cost));
  std::vector<int64_t> targets(kModels, 0);
  std::vector<double> accrued(kModels, 0.0);
  int64_t demand = max_target / 2;
  int64_t changes = 0;
  for (int s = 0; s < 2000; ++s) {
    if (s % 400 == 399) {
      cost.vm_cost_per_hour = rng.NextDouble(0.01, 0.2);
      cost.vm_startup_ms = rng.NextInt(0, 3) * 30'000;
    }
    demand = std::clamp<int64_t>(demand + rng.NextInt(-20, 20), 0, max_target);
    const int64_t moves = rng.NextInt(0, 3);
    for (int64_t m = 0; m < moves; ++m) {
      targets[static_cast<size_t>(rng.NextInt(0, kModels - 1))] =
          rng.NextInt(0, max_target);
      ++changes;
    }
    // End on rises a few seconds apart, leaving young VMs that still owe
    // minimum billing at Finish().
    if (s >= 1950 && s % 5 == 0) {
      for (int64_t& t : targets) t += rng.NextInt(1, 20);
    }
    batch.Step(targets, demand, accrued);
    for (size_t i = 0; i < kModels; ++i) {
      ASSERT_EQ(batch.available(i), refs[i].Step(targets[i], demand))
          << "model " << i << " second " << s;
    }
  }
  EXPECT_GT(changes, 1000);
  batch.Finish();
  for (size_t i = 0; i < kModels; ++i) {
    refs[i].Finish();
    EXPECT_EQ(accrued[i], refs[i].accrued) << "model " << i;
    EXPECT_EQ(batch.vm_cost(i), refs[i].vm_cost) << "model " << i;
    EXPECT_EQ(batch.elastic_cost(i), refs[i].elastic_cost) << "model " << i;
    EXPECT_EQ(batch.total_vm_seconds(i), refs[i].vm_seconds) << "model " << i;
    EXPECT_EQ(batch.pending(i), 0);
    EXPECT_EQ(batch.available(i), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationModelPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 71, 86));

TEST(AllocationModelDeathTest, NegativeTargetAborts) {
  CostModel cost;
  AllocationModel single(&cost);
  EXPECT_DEATH(single.Step(-1, 0), "target");
  // In a batch, the other models' steady targets do not hide it.
  AllocationModel batch(&cost, 3);
  std::vector<double> accrued(3, 0.0);
  const std::vector<int64_t> steady = {0, 0, 0};
  batch.Step(steady, 5, accrued);
  const std::vector<int64_t> one_negative = {0, -1, 0};
  EXPECT_DEATH(batch.Step(one_negative, 5, accrued), "target");
}

TEST(AllocationModelTest, StartupDelayHonored) {
  CostModel cost;  // 180 s startup
  AllocationModel model(&cost);
  for (int s = 0; s < 180; ++s) {
    EXPECT_EQ(model.Step(10, 0).available, 0) << s;
  }
  EXPECT_EQ(model.Step(10, 0).available, 10);
  model.Finish();
}

TEST(AllocationModelTest, ZeroStartupImmediate) {
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  EXPECT_EQ(model.Step(7, 0).available, 7);
  model.Finish();
}

TEST(AllocationModelTest, BusyVmsNotTerminated) {
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  model.Step(10, 10);
  // Dropping the target with all VMs busy keeps them allocated.
  EXPECT_EQ(model.Step(0, 10).available, 10);
  // Demand falls, but the VMs are inside their minimum billing window, so
  // there is no value in stopping them yet.
  EXPECT_EQ(model.Step(0, 4).available, 10);
  // Once the minimum billing time has elapsed, idle VMs terminate; busy
  // ones (demand = 4) stay.
  for (int s = 3; s < 60; ++s) model.Step(0, 4);
  EXPECT_EQ(model.Step(0, 4).available, 4);
  model.Finish();
}

TEST(AllocationModelTest, OverflowBilledToElastic) {
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  const auto step = model.Step(10, 25);
  EXPECT_EQ(step.available, 10);
  EXPECT_NEAR(step.elastic_cost, 15 * cost.ElasticCostPerSecond(), 1e-12);
  EXPECT_NEAR(step.vm_cost, 10 * cost.VmCostPerSecond(), 1e-12);
  model.Finish();
}

// ---------------------------------------------------------------------------
// MultiplicativeWeights
// ---------------------------------------------------------------------------

TEST(MultiplicativeWeightsTest, WeightsStayPositiveAndOrdered) {
  MultiplicativeWeights mw(3, 0.5);
  for (int round = 0; round < 200; ++round) {
    mw.Update({1.0, 0.5, 0.0});
  }
  EXPECT_GT(mw.weights()[0], 0.0);
  EXPECT_LT(mw.Probability(0), mw.Probability(1));
  EXPECT_LT(mw.Probability(1), mw.Probability(2));
  EXPECT_EQ(mw.Best(), 2u);
  EXPECT_NEAR(mw.Probability(0) + mw.Probability(1) + mw.Probability(2), 1.0,
              1e-12);
}

TEST(MultiplicativeWeightsTest, SampleFollowsDistribution) {
  MultiplicativeWeights mw(2, 0.5);
  for (int i = 0; i < 20; ++i) mw.Update({1.0, 0.0});
  Rng rng(5);
  int second = 0;
  for (int i = 0; i < 10000; ++i) second += (mw.Sample(&rng) == 1);
  EXPECT_GT(second, 9900);
}

TEST(MultiplicativeWeightsTest, WeightFloorBoundsRatio) {
  MultiplicativeWeights mw(4, 0.5, /*weight_floor_ratio=*/1e-3);
  for (int i = 0; i < 500; ++i) mw.Update({1.0, 1.0, 1.0, 0.0});
  // Without the floor, the first three weights would be ~(0.5)^500; with it
  // they stay at one thousandth of the best.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(mw.weights()[i], 1e-3 * mw.weights()[3] * 0.999);
    EXPECT_LT(mw.Probability(i), 2e-3);
  }
}

TEST(MultiplicativeWeightsTest, FloorSpeedsUpEnvironmentSwitch) {
  // Expert 0 is best for 1000 rounds, then expert 1 becomes best. With the
  // floor, expert 1 regains the majority probability within ~100 rounds.
  MultiplicativeWeights mw(2, 0.25, /*weight_floor_ratio=*/1e-6);
  for (int i = 0; i < 1000; ++i) mw.Update({0.0, 1.0});
  EXPECT_EQ(mw.Best(), 0u);
  int rounds_to_switch = 0;
  while (mw.Probability(1) < 0.5 && rounds_to_switch < 1000) {
    mw.Update({1.0, 0.0});
    ++rounds_to_switch;
  }
  EXPECT_LT(rounds_to_switch, 120);
}

TEST(MultiplicativeWeightsTest, PenaltiesClamped) {
  MultiplicativeWeights mw(2, 0.5);
  mw.Update({5.0, -3.0});  // clamped to {1, 0}
  EXPECT_LT(mw.weights()[0], mw.weights()[1]);
  EXPECT_GT(mw.weights()[0], 0.0);
}

/// Property: expected cumulative penalty of MW is within the textbook regret
/// bound of the best expert on adversarial random penalty sequences.
class MwRegretTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MwRegretTest, RegretBoundHolds) {
  const size_t n = 8;
  const double eps = 0.25;
  MultiplicativeWeights mw(n, eps);
  Rng rng(GetParam());
  const int rounds = 600;
  std::vector<double> cumulative(n, 0.0);
  double expected_alg = 0.0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> penalties(n);
    for (size_t i = 0; i < n; ++i) penalties[i] = rng.NextDouble();
    // Expected algorithm penalty under the *pre-update* distribution.
    for (size_t i = 0; i < n; ++i) {
      expected_alg += mw.Probability(i) * penalties[i];
      cumulative[i] += penalties[i];
    }
    mw.Update(penalties);
  }
  const double best = *std::min_element(cumulative.begin(), cumulative.end());
  // Bound: ALG <= (1 + eps) * BEST + ln(n) / eps.
  EXPECT_LE(expected_alg,
            (1.0 + eps) * best + std::log(static_cast<double>(n)) / eps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwRegretTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

TEST(OracleTest, EmptyDemandIsFree) {
  CostModel cost;
  const OracleResult r = ComputeOracleCost({0, 0, 0}, cost);
  EXPECT_DOUBLE_EQ(r.total(), 0.0);
}

TEST(OracleTest, ShortBurstGoesElastic) {
  CostModel cost;  // elastic 6x; breakeven at 10 s
  std::vector<int64_t> demand(100, 0);
  for (int s = 40; s < 45; ++s) demand[static_cast<size_t>(s)] = 1;  // 5 s
  const OracleResult r = ComputeOracleCost(demand, cost);
  EXPECT_DOUBLE_EQ(r.vm_cost, 0.0);
  EXPECT_NEAR(r.elastic_cost, 5 * cost.ElasticCostPerSecond(), 1e-12);
}

TEST(OracleTest, LongRunGoesVm) {
  CostModel cost;
  std::vector<int64_t> demand(400, 0);
  for (int s = 0; s < 300; ++s) demand[static_cast<size_t>(s)] = 2;
  const OracleResult r = ComputeOracleCost(demand, cost);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
  EXPECT_NEAR(r.vm_cost, 2 * 300 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_EQ(r.vm_sessions, 2);
}

TEST(OracleTest, SubMinimumRunBillsMinimumOrElastic) {
  CostModel cost;
  std::vector<int64_t> demand(200, 0);
  for (int s = 0; s < 30; ++s) demand[static_cast<size_t>(s)] = 1;  // 30 s
  const OracleResult r = ComputeOracleCost(demand, cost);
  // VM: 60 s minimum = 60 * vm price; elastic: 30 * 6 * vm price = 180.
  // VM wins.
  EXPECT_NEAR(r.vm_cost, 60 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
}

TEST(OracleTest, BridgesShortGapInsteadOfRestart) {
  CostModel cost;
  // Two 90 s runs separated by a 10 s gap: one session spanning 190 s is
  // cheaper than two sessions (180 s billed) only if... it is not: two
  // sessions bill 90+90=180 < 190. The oracle should split.
  std::vector<int64_t> demand(400, 0);
  for (int s = 0; s < 90; ++s) demand[static_cast<size_t>(s)] = 1;
  for (int s = 100; s < 190; ++s) demand[static_cast<size_t>(s)] = 1;
  const OracleResult split = ComputeOracleCost(demand, cost);
  EXPECT_NEAR(split.vm_cost, 180 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_EQ(split.vm_sessions, 2);

  // Two 30 s runs separated by a 10 s gap: separate sessions bill 2x60 s
  // minimum (120 s); one session spans 70 s billed. Bridging wins.
  std::vector<int64_t> demand2(400, 0);
  for (int s = 0; s < 30; ++s) demand2[static_cast<size_t>(s)] = 1;
  for (int s = 40; s < 70; ++s) demand2[static_cast<size_t>(s)] = 1;
  const OracleResult merged = ComputeOracleCost(demand2, cost);
  EXPECT_NEAR(merged.vm_cost, 70 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_EQ(merged.vm_sessions, 1);
}

TEST(OracleTest, ElasticDisabledForcesVm) {
  CostModel cost;
  std::vector<int64_t> demand(100, 0);
  demand[50] = 3;  // 1-second spike
  const OracleResult r = ComputeOracleCost(demand, cost, /*allow_elastic=*/false);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
  EXPECT_NEAR(r.vm_cost, 3 * 60 * cost.VmCostPerSecond(), 1e-12);
}

TEST(OracleTest, EqualPricesPreferNoVmPenalty) {
  CostModel cost;
  cost.elastic_cost_per_hour = cost.vm_cost_per_hour;  // premium 1x
  std::vector<int64_t> demand(1000, 5);
  const OracleResult r = ComputeOracleCost(demand, cost);
  // Elastic matches VM second-for-second with no minimum billing: total is
  // exactly demand-seconds at the common price.
  EXPECT_NEAR(r.total(), 5000 * cost.VmCostPerSecond(), 1e-9);
}

/// Brute-force oracle for tiny inputs: enumerate, per layer, all ways to
/// split runs into elastic/VM sessions.
double BruteForceLayerCost(const std::vector<std::pair<int64_t, int64_t>>& runs,
                           const CostModel& cost, size_t i = 0) {
  if (i == runs.size()) return 0.0;
  const double cv = cost.VmCostPerSecond();
  const double ce = cost.ElasticCostPerSecond();
  const int64_t minb = cost.vm_min_billing_ms / 1000;
  double best = (runs[i].second - runs[i].first) * ce +
                BruteForceLayerCost(runs, cost, i + 1);
  for (size_t j = i; j < runs.size(); ++j) {
    const int64_t span = runs[j].second - runs[i].first;
    const double session = static_cast<double>(std::max(span, minb)) * cv;
    best = std::min(best, session + BruteForceLayerCost(runs, cost, j + 1));
  }
  return best;
}

class OraclePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OraclePropertyTest, MatchesBruteForceOnSingleLayer) {
  CostModel cost;
  Rng rng(GetParam());
  cost.elastic_cost_per_hour =
      cost.vm_cost_per_hour * rng.NextDouble(1.0, 12.0);
  // Random 0/1 demand over 600 s with ~8 runs.
  std::vector<int64_t> demand(600, 0);
  std::vector<std::pair<int64_t, int64_t>> runs;
  int64_t t = rng.NextInt(0, 30);
  while (t < 580 && runs.size() < 8) {
    const int64_t len = rng.NextInt(1, 80);
    const int64_t end = std::min<int64_t>(600, t + len);
    for (int64_t s = t; s < end; ++s) demand[static_cast<size_t>(s)] = 1;
    runs.emplace_back(t, end);
    t = end + rng.NextInt(1, 100);
  }
  const OracleResult r = ComputeOracleCost(demand, cost);
  const double brute = BruteForceLayerCost(runs, cost);
  EXPECT_NEAR(r.total(), brute, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OraclePropertyTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110, 111, 112));

/// Brute-force layer cost with the elastic option removed (VM sessions
/// only), for validating allow_elastic=false.
double BruteForceLayerCostVmOnly(
    const std::vector<std::pair<int64_t, int64_t>>& runs,
    const CostModel& cost, size_t i = 0) {
  if (i == runs.size()) return 0.0;
  const double cv = cost.VmCostPerSecond();
  const int64_t minb = cost.vm_min_billing_ms / 1000;
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = i; j < runs.size(); ++j) {
    const int64_t span = runs[j].second - runs[i].first;
    best = std::min(best,
                    static_cast<double>(std::max(span, minb)) * cv +
                        BruteForceLayerCostVmOnly(runs, cost, j + 1));
  }
  return best;
}

class OracleNoElasticTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleNoElasticTest, MatchesVmOnlyBruteForce) {
  CostModel cost;
  Rng rng(GetParam());
  std::vector<int64_t> demand(500, 0);
  std::vector<std::pair<int64_t, int64_t>> runs;
  int64_t t = rng.NextInt(0, 20);
  while (t < 480 && runs.size() < 7) {
    const int64_t end = std::min<int64_t>(500, t + rng.NextInt(1, 90));
    for (int64_t s = t; s < end; ++s) demand[static_cast<size_t>(s)] = 1;
    runs.emplace_back(t, end);
    t = end + rng.NextInt(1, 80);
  }
  const OracleResult r =
      ComputeOracleCost(demand, cost, /*allow_elastic=*/false);
  EXPECT_NEAR(r.total(), BruteForceLayerCostVmOnly(runs, cost), 1e-9);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleNoElasticTest,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

TEST(DynamicStrategyTest, SettlesOnStationaryWorkload) {
  // Section 4.4.6: "As the history grows, ... the meta-strategy typically
  // settles". Switching becomes rarer once weights concentrate; compare
  // switch counts early vs late on a long stationary sinusoid.
  CostModel cost;
  const auto demand = SinusoidDemand(8 * 3600, 1200, 60);
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  int64_t switches_first_quarter = 0;
  int64_t switches_last_quarter = 0;
  int64_t prev_switches = 0;
  for (size_t s = 0; s < demand.size(); ++s) {
    history.Append(demand[s]);
    dynamic.Target(history);
    const int64_t now_switches = dynamic.expert_switches();
    if (s < demand.size() / 4) {
      switches_first_quarter += now_switches - prev_switches;
    } else if (s >= 3 * demand.size() / 4) {
      switches_last_quarter += now_switches - prev_switches;
    }
    prev_switches = now_switches;
  }
  // Late switching is at most a modest multiple less... concretely: fewer
  // late switches than early ones (weights have concentrated).
  EXPECT_LT(switches_last_quarter, switches_first_quarter);
}

/// Multi-layer property: the oracle must equal the sum of per-layer optima
/// (layers extracted independently here and solved by brute force).
class OracleMultiLayerTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleMultiLayerTest, MatchesSumOfLayerBruteForces) {
  CostModel cost;
  Rng rng(GetParam());
  cost.elastic_cost_per_hour = cost.vm_cost_per_hour * rng.NextDouble(1.5, 9.0);
  // A random walk over levels 0..4, held for random stretches so layer
  // runs have non-trivial lengths and gaps.
  std::vector<int64_t> demand;
  demand.reserve(400);
  int64_t level = 0;
  while (demand.size() < 400) {
    level = std::clamp<int64_t>(level + rng.NextInt(-2, 2), 0, 4);
    const int64_t hold = rng.NextInt(1, 40);
    for (int64_t h = 0; h < hold && demand.size() < 400; ++h) {
      demand.push_back(level);
    }
  }
  double expected = 0.0;
  int64_t max_level = 0;
  for (int64_t d : demand) max_level = std::max(max_level, d);
  for (int64_t k = 1; k <= max_level; ++k) {
    std::vector<std::pair<int64_t, int64_t>> runs;
    int64_t start = -1;
    for (size_t t = 0; t <= demand.size(); ++t) {
      const bool busy = t < demand.size() && demand[t] >= k;
      if (busy && start < 0) start = static_cast<int64_t>(t);
      if (!busy && start >= 0) {
        runs.emplace_back(start, static_cast<int64_t>(t));
        start = -1;
      }
    }
    expected += BruteForceLayerCost(runs, cost);
  }
  const OracleResult r = ComputeOracleCost(demand, cost);
  EXPECT_NEAR(r.total(), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleMultiLayerTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

// ---------------------------------------------------------------------------
// Cost calculator + strategies end to end
// ---------------------------------------------------------------------------

TEST(CostCalculatorTest, Fixed0IsPureElastic) {
  CostModel cost;
  const auto demand = SinusoidDemand(3600, 600, 100);
  FixedStrategy fixed0(0);
  const auto eval = EvaluateStrategy(&fixed0, demand, cost);
  EXPECT_DOUBLE_EQ(eval.vm_cost, 0.0);
  int64_t total = 0;
  for (int64_t d : demand) total += d;
  EXPECT_NEAR(eval.elastic_cost,
              static_cast<double>(total) * cost.ElasticCostPerSecond(), 1e-9);
}

TEST(CostCalculatorTest, HugeFixedIsPureVm) {
  CostModel cost;
  const auto demand = SinusoidDemand(3600, 600, 100);
  FixedStrategy fixed(500);
  const auto eval = EvaluateStrategy(&fixed, demand, cost);
  // Even an over-provisioned fixed strategy pays elastic for the demand
  // that arrives during the initial VM startup window (it starts from an
  // empty cluster, like Cackle in Figure 1).
  const int64_t startup_s = cost.vm_startup_ms / 1000;
  int64_t startup_demand = 0;
  for (int64_t s = 0; s < startup_s; ++s) {
    startup_demand += demand[static_cast<size_t>(s)];
  }
  EXPECT_NEAR(eval.elastic_cost,
              static_cast<double>(startup_demand) *
                  cost.ElasticCostPerSecond(),
              1e-9);
  // 500 VMs for (3600 - startup 180) seconds plus the final minimum-billing
  // flush never exceeds the full-hour rental.
  EXPECT_LE(eval.vm_cost, 500 * 3600 * cost.VmCostPerSecond() + 1e-9);
  EXPECT_GE(eval.vm_cost, 500 * 3000 * cost.VmCostPerSecond());
}

TEST(CostCalculatorTest, OracleLowerBoundsAllStrategies) {
  CostModel cost;
  const auto demand = SinusoidDemand(4 * 3600, 1200, 80);
  const double oracle = ComputeOracleCost(demand, cost).total();
  FixedStrategy fixed0(0);
  FixedStrategy fixed100(100);
  MeanStrategy mean2(2.0);
  PredictiveStrategy predictive(CostModel{}.vm_startup_ms);
  for (ProvisioningStrategy* s : std::initializer_list<ProvisioningStrategy*>{
           &fixed0, &fixed100, &mean2, &predictive}) {
    const auto eval = EvaluateStrategy(s, demand, cost);
    EXPECT_GE(eval.total(), oracle - 1e-6) << s->name();
  }
}

TEST(CostCalculatorTest, RecordedSeriesConsistent) {
  CostModel cost;
  const auto demand = SinusoidDemand(1800, 600, 50);
  MeanStrategy mean1(1.0);
  const auto eval = EvaluateStrategy(&mean1, demand, cost, true);
  ASSERT_EQ(eval.target_series.size(), demand.size());
  ASSERT_EQ(eval.allocation_series.size(), demand.size());
  // Allocation never exceeds the running max target (VMs only start after
  // being requested).
  int64_t max_target = 0;
  for (size_t i = 0; i < demand.size(); ++i) {
    max_target = std::max(max_target, eval.target_series[i]);
    EXPECT_LE(eval.allocation_series[i], max_target);
  }
}

TEST(StrategyValidationDeathTest, RejectsNonPositivePercentileStep) {
  FamilyOptions options;
  options.percentile_step = 0;
  EXPECT_DEATH(BuildPercentileFamily(options), "percentile_step");
  options.percentile_step = -1;
  EXPECT_DEATH(BuildPercentileFamily(options), "percentile_step");
}

TEST(StrategyValidationDeathTest, RejectsInvalidDynamicOptions) {
  CostModel cost;
  DynamicStrategyOptions options;
  options.update_interval_s = 0;
  EXPECT_DEATH(DynamicStrategy(&cost, options), "update_interval_s");
  options = DynamicStrategyOptions();
  options.tenant_window_s = 0;
  EXPECT_DEATH(DynamicStrategy(&cost, options), "tenant_window_s");
  options = DynamicStrategyOptions();
  options.tenant_headroom = -0.5;
  EXPECT_DEATH(DynamicStrategy(&cost, options), "tenant_headroom");
}

TEST(DynamicStrategyTest, TracksSinusoidCheaperThanNaive) {
  CostModel cost;
  const auto demand = SinusoidDemand(6 * 3600, 3600, 60);
  DynamicStrategyOptions opts;
  DynamicStrategy dynamic(&cost, opts);
  FixedStrategy fixed0(0);
  FixedStrategy fixed500(500);
  const double dyn = EvaluateStrategy(&dynamic, demand, cost).total();
  const double f0 = EvaluateStrategy(&fixed0, demand, cost).total();
  const double f500 = EvaluateStrategy(&fixed500, demand, cost).total();
  const double oracle = ComputeOracleCost(demand, cost).total();
  EXPECT_LT(dyn, f0);
  EXPECT_LT(dyn, f500);
  EXPECT_GE(dyn, oracle - 1e-6);
  // Sanity: within a reasonable factor of the oracle on a benign workload.
  EXPECT_LT(dyn, 2.0 * oracle);
}

TEST(DynamicStrategyTest, ExpertsEvaluatedAndSwitched) {
  CostModel cost;
  const auto demand = SinusoidDemand(3600, 900, 40);
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  for (int64_t d : demand) {
    history.Append(d);
    dynamic.Target(history);
  }
  EXPECT_EQ(dynamic.num_experts(), 666u);
  EXPECT_GT(dynamic.ExpertCost(0), 0.0);
  EXPECT_FALSE(dynamic.chosen_expert_name().empty());
  EXPECT_GT(dynamic.weights().rounds(), 0);
}

TEST(DynamicStrategyTest, AdaptsToElasticPremiumChange) {
  // With a 1x premium the best experts under-provision (elastic is free
  // flexibility); with a high premium they provision above the demand. The
  // dynamic strategy's realized VM share should rise with the premium.
  const auto demand = SinusoidDemand(4 * 3600, 1800, 50);
  CostModel cheap_pool;
  cheap_pool.elastic_cost_per_hour = cheap_pool.vm_cost_per_hour;
  CostModel pricey_pool;
  pricey_pool.elastic_cost_per_hour = 30 * pricey_pool.vm_cost_per_hour;
  DynamicStrategy dyn_cheap(&cheap_pool);
  DynamicStrategy dyn_pricey(&pricey_pool);
  const auto eval_cheap = EvaluateStrategy(&dyn_cheap, demand, cheap_pool);
  const auto eval_pricey = EvaluateStrategy(&dyn_pricey, demand, pricey_pool);
  const auto share = [](const StrategyEvaluation& e) {
    return static_cast<double>(e.vm_seconds) /
           static_cast<double>(e.vm_seconds + e.elastic_task_seconds + 1);
  };
  EXPECT_GT(share(eval_pricey), share(eval_cheap));
}

TEST(DynamicStrategyTest, ArgmaxSelectionIsStabler) {
  CostModel cost;
  const auto demand = SinusoidDemand(2 * 3600, 1200, 60);
  DynamicStrategyOptions sample_opts;
  sample_opts.sample_expert = true;
  DynamicStrategyOptions argmax_opts;
  argmax_opts.sample_expert = false;
  DynamicStrategy sampler(&cost, sample_opts);
  DynamicStrategy leader(&cost, argmax_opts);
  const double cs = EvaluateStrategy(&sampler, demand, cost).total();
  const double cl = EvaluateStrategy(&leader, demand, cost).total();
  // Follow-the-leader switches far less and stays cost-competitive.
  EXPECT_LT(leader.expert_switches(), sampler.expert_switches() / 4);
  EXPECT_LT(cl, 1.25 * cs);
}

// ---------------------------------------------------------------------------
// Dynamic strategy goldens: exact results of the full 666-expert
// meta-strategy on two seeded inputs, pinned to constants. Costs compare by
// bit pattern, and the per-second target series by hash, so any change to
// expert evaluation, allocation modelling or MW selection that alters a
// single played target or the last bit of a cost fails here.
// ---------------------------------------------------------------------------

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One FNV-1a step over a 64-bit word.
uint64_t FnvMix(uint64_t h, uint64_t v) { return (h ^ v) * 1099511628211ULL; }
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

uint64_t HashSeries(const std::vector<int64_t>& series) {
  uint64_t h = kFnvBasis;
  for (const int64_t v : series) h = FnvMix(h, static_cast<uint64_t>(v));
  return h;
}

/// Hash over the bit pattern of every expert's cumulative predicted cost.
uint64_t HashExpertCosts(const DynamicStrategy& dynamic) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < dynamic.num_experts(); ++i) {
    h = FnvMix(h, DoubleBits(dynamic.ExpertCost(i)));
  }
  return h;
}

std::vector<int64_t> AzureGoldenDemand() {
  std::vector<int64_t> demand = TraceGenerator::AzureNodes(/*seed=*/11, 4);
  for (int64_t& nodes : demand) nodes *= TraceGenerator::kTasksPerAzureNode;
  return demand;
}

struct DynamicGolden {
  uint64_t total_cost_bits;
  int64_t vm_seconds;
  int64_t elastic_task_seconds;
  int64_t expert_switches;
  uint64_t target_series_hash;
  uint64_t expert_cost_hash;
};

void ExpectDynamicGolden(const std::vector<int64_t>& demand,
                         const DynamicGolden& golden) {
  CostModel cost;
  DynamicStrategy dynamic(&cost);
  const StrategyEvaluation eval =
      EvaluateStrategy(&dynamic, demand, cost, /*record_series=*/true);
  ASSERT_EQ(eval.target_series.size(), demand.size());
  EXPECT_EQ(DoubleBits(eval.total()), golden.total_cost_bits)
      << "total cost " << eval.total();
  EXPECT_EQ(eval.vm_seconds, golden.vm_seconds);
  EXPECT_EQ(eval.elastic_task_seconds, golden.elastic_task_seconds);
  EXPECT_EQ(dynamic.expert_switches(), golden.expert_switches);
  EXPECT_EQ(HashSeries(eval.target_series), golden.target_series_hash);
  EXPECT_EQ(HashExpertCosts(dynamic), golden.expert_cost_hash);
}

TEST(DynamicStrategyGoldenTest, SinusoidPinned) {
  ExpectDynamicGolden(SinusoidDemand(4 * 3600, 1200, 80),
                      {0x4039734f0d844cd8ULL, 788637, 377569, 2758,
                       0xa311977c8fe9bfc1ULL, 0x95f6d194c8ec9e6bULL});
}

TEST(DynamicStrategyGoldenTest, AzureTracePinned) {
  ExpectDynamicGolden(AzureGoldenDemand(),
                      {0x408127162fc963ccULL, 41024620, 4140280, 2787,
                       0xe67b95455c6e55f5ULL, 0x374519d897637257ULL});
}

TEST(DynamicStrategyGoldenTest, EnvironmentChangesPinned) {
  // The VM price rises by 2.5x a third of the way in, the startup delay
  // drops to 30 s halfway (younger requests then come ready before older
  // ones) and to 0 at three quarters: every expert model re-reads the
  // environment in the second it changes.
  CostModel cost;
  const std::vector<int64_t> demand = SinusoidDemand(4 * 3600, 1500, 70);
  const size_t n = demand.size();
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  AllocationModel played(&cost);
  std::vector<int64_t> targets;
  for (size_t s = 0; s < n; ++s) {
    if (s == n / 3) cost.vm_cost_per_hour *= 2.5;
    if (s == n / 2) cost.vm_startup_ms = 30'000;
    if (s == 3 * n / 4) cost.vm_startup_ms = 0;
    history.Append(demand[s]);
    targets.push_back(dynamic.Target(history));
    played.Step(targets.back(), demand[s]);
  }
  played.Finish();
  EXPECT_EQ(DoubleBits(played.total_cost()), 0x40378a1b94696725ULL)
      << "total cost " << played.total_cost();
  EXPECT_EQ(played.total_vm_seconds(), 881194);
  EXPECT_EQ(dynamic.expert_switches(), 2784);
  EXPECT_EQ(HashSeries(targets), 0xddde40d3e713aabeULL);
  EXPECT_EQ(HashExpertCosts(dynamic), 0x83f649341ead8fd6ULL);
}

/// The Fig 10 baselines through EvaluateStrategy, totals pinned by bit
/// pattern: fixed_0 (pure elastic), mean_1 (window sums) and predictive
/// (a least-squares fit over the trailing window).
void ExpectBaselineGoldens(const std::vector<int64_t>& demand,
                           uint64_t fixed_0_bits, uint64_t mean_1_bits,
                           uint64_t predictive_bits) {
  const CostModel cost;
  FixedStrategy fixed_0(0);
  MeanStrategy mean_1(1.0);
  PredictiveStrategy predictive(cost.vm_startup_ms);
  const double f = EvaluateStrategy(&fixed_0, demand, cost).total();
  const double m = EvaluateStrategy(&mean_1, demand, cost).total();
  const double p = EvaluateStrategy(&predictive, demand, cost).total();
  EXPECT_EQ(DoubleBits(f), fixed_0_bits) << "fixed_0 " << f;
  EXPECT_EQ(DoubleBits(m), mean_1_bits) << "mean_1 " << m;
  EXPECT_EQ(DoubleBits(p), predictive_bits) << "predictive " << p;
}

TEST(BaselineGoldenTest, SinusoidPinned) {
  ExpectBaselineGoldens(SinusoidDemand(4 * 3600, 1200, 80),
                        0x404c9ed42c3c9f6aULL, 0x40410a4c756b2decULL,
                        0x4034eeb8ddbae9e8ULL);
}

TEST(BaselineGoldenTest, AzureTracePinned) {
  ExpectBaselineGoldens(AzureGoldenDemand(), 0x40a1640ed916871bULL,
                        0x408325ff0b550f8aULL, 0x40807a5928011762ULL);
}

TEST(AllocationModelTest, LivePriceChangeTakesEffect) {
  // Section 5.3: prices can change mid-workload; the model constructed
  // from a CostModel re-reads prices each second.
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  const auto before = model.Step(10, 0);
  EXPECT_NEAR(before.vm_cost, 10 * 0.03 / 3600.0, 1e-12);
  cost.vm_cost_per_hour = 0.06;  // price doubles
  const auto after = model.Step(10, 0);
  EXPECT_NEAR(after.vm_cost, 10 * 0.06 / 3600.0, 1e-12);
  model.Finish();
}

TEST(DynamicStrategyTest, ShiftsTowardElasticWhenVmPriceRises) {
  // With the premium at 6x the dynamic strategy provisions VMs; when the
  // VM price overshoots the elastic price mid-run, its experts' costs
  // re-rank and the VM share of served demand collapses. (At exact price
  // parity there is no cost pressure either way — the shift shows once
  // elastic is strictly cheaper.)
  CostModel cost;
  const auto demand = SinusoidDemand(6 * 3600, 1800, 80);
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  AllocationModel model(&cost);
  int64_t vm_seconds_cheap = 0;
  int64_t vm_seconds_pricey = 0;
  for (size_t s = 0; s < demand.size(); ++s) {
    if (s == demand.size() / 2) {
      cost.vm_cost_per_hour = 2.0 * cost.elastic_cost_per_hour;
    }
    history.Append(demand[s]);
    const auto step = model.Step(dynamic.Target(history), demand[s]);
    if (s < demand.size() / 2) {
      vm_seconds_cheap += step.available;
    } else {
      vm_seconds_pricey += step.available;
    }
  }
  model.Finish();
  EXPECT_LT(vm_seconds_pricey, vm_seconds_cheap / 2);
}

// ---------------------------------------------------------------------------
// ShuffleProvisioner
// ---------------------------------------------------------------------------

TEST(ShuffleProvisionerTest, FloorAlwaysProvisioned) {
  CostModel cost;  // 8 GB nodes, 16 GB floor -> at least 2 nodes
  ShuffleProvisioner prov(&cost);
  EXPECT_EQ(prov.Step(0), 2);
  EXPECT_EQ(prov.Step(100), 2);
}

TEST(ShuffleProvisionerTest, TracksWindowMax) {
  CostModel cost;
  ShuffleProvisioner prov(&cost, /*lookback_s=*/5, /*floor_bytes=*/0);
  const int64_t gb = 1LL << 30;
  EXPECT_EQ(prov.Step(40 * gb), 5);  // ceil(40/8)
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(prov.Step(1 * gb), 5);  // 40 GB still inside the window
  }
  // The 40 GB sample has now fallen out of the 5 s window.
  EXPECT_EQ(prov.Step(1 * gb), 1);
}

}  // namespace
}  // namespace cackle
