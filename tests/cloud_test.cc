#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/chaos_timeline.h"
#include "cloud/cost_model.h"
#include "cloud/elastic_pool.h"
#include "cloud/fault_injector.h"
#include "cloud/object_store.h"
#include "cloud/spot_market.h"
#include "cloud/vm_fleet.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace cackle {
namespace {

TEST(CostModelTest, DefaultsMatchPaperTable1) {
  CostModel cost;
  EXPECT_DOUBLE_EQ(cost.vm_cost_per_hour, 0.03);
  EXPECT_DOUBLE_EQ(cost.elastic_cost_per_hour, 0.18);
  EXPECT_EQ(cost.vm_startup_ms, 3 * kMillisPerMinute);
  EXPECT_EQ(cost.vm_min_billing_ms, kMillisPerMinute);
  EXPECT_DOUBLE_EQ(cost.ElasticPremium(), 6.0);
}

TEST(CostModelTest, VmMinimumBilling) {
  CostModel cost;
  // 10 seconds of use still bills a full minute.
  EXPECT_DOUBLE_EQ(cost.VmCost(10'000), 0.03 / 60.0);
  // Above the minimum, per-second rounding applies.
  EXPECT_DOUBLE_EQ(cost.VmCost(90'500), 0.03 * 91.0 / 3600.0);
}

TEST(CostModelTest, ElasticMillisecondBilling) {
  CostModel cost;
  EXPECT_DOUBLE_EQ(cost.ElasticCost(1), 0.18 / 3600000.0);
  EXPECT_DOUBLE_EQ(cost.ElasticCost(500), 0.18 * 500 / 3600000.0);
  EXPECT_DOUBLE_EQ(cost.ElasticCost(0), 0.0);
}

TEST(CostModelTest, ElasticVsVmShortBurst) {
  // Section 5.5: for short bursts, the elastic premium beats the VM's
  // minimum billing time. With a 6x premium the crossover is at 10 s.
  CostModel cost;
  EXPECT_LT(cost.ElasticCost(5'000), cost.VmCost(5'000));
  EXPECT_GT(cost.ElasticCost(30'000), cost.VmCost(30'000));
}

TEST(BillingMeterTest, TracksCategories) {
  BillingMeter meter;
  meter.Charge(CostCategory::kVm, 1.5);
  meter.Charge(CostCategory::kVm, 0.5);
  meter.Charge(CostCategory::kElasticPool, 3.0);
  meter.Charge(CostCategory::kObjectStorePut, 0.25);
  EXPECT_DOUBLE_EQ(meter.CategoryDollars(CostCategory::kVm), 2.0);
  EXPECT_EQ(meter.CategoryEvents(CostCategory::kVm), 2);
  EXPECT_DOUBLE_EQ(meter.ComputeDollars(), 5.0);
  EXPECT_DOUBLE_EQ(meter.ShuffleDollars(), 0.25);
  EXPECT_DOUBLE_EQ(meter.TotalDollars(), 5.25);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.TotalDollars(), 0.0);
}

TEST(SpotMarketTest, ConstantPrice) {
  SpotMarket market(0.03);
  EXPECT_DOUBLE_EQ(market.PriceAt(0), 0.03);
  EXPECT_DOUBLE_EQ(market.PriceAt(kMillisPerHour * 100), 0.03);
  EXPECT_NEAR(market.DollarsOver(0, kMillisPerHour), 0.03, 1e-12);
}

TEST(SpotMarketTest, PiecewiseIntegral) {
  SpotMarket market({{0, 0.03}, {kMillisPerHour, 0.06}});
  EXPECT_DOUBLE_EQ(market.PriceAt(kMillisPerHour - 1), 0.03);
  EXPECT_DOUBLE_EQ(market.PriceAt(kMillisPerHour), 0.06);
  // Half an hour at each price.
  const double dollars = market.DollarsOver(kMillisPerHour / 2,
                                            3 * kMillisPerHour / 2);
  EXPECT_NEAR(dollars, 0.015 + 0.03, 1e-12);
}

TEST(SpotMarketTest, RandomWalkStaysClamped) {
  Rng rng(4);
  SpotMarket market = SpotMarket::RandomWalk(0.04, 0.02, 0.09, 0.2,
                                             kMillisPerHour,
                                             100 * kMillisPerHour, &rng);
  for (const auto& [t, price] : market.breakpoints()) {
    EXPECT_GE(price, 0.02);
    EXPECT_LE(price, 0.09);
  }
  EXPECT_GT(market.breakpoints().size(), 50u);
}

class VmFleetTest : public ::testing::Test {
 protected:
  Simulation sim_;
  CostModel cost_;
  BillingMeter meter_;
};

TEST_F(VmFleetTest, VmsStartAfterDelay) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(3);
  EXPECT_EQ(fleet.num_pending(), 3);
  EXPECT_EQ(fleet.num_ready(), 0);
  EXPECT_FALSE(fleet.TryAcquire().has_value());
  sim_.RunUntil(cost_.vm_startup_ms - 1);
  EXPECT_EQ(fleet.num_ready(), 0);
  sim_.RunUntil(cost_.vm_startup_ms);
  EXPECT_EQ(fleet.num_ready(), 3);
  EXPECT_EQ(fleet.num_idle(), 3);
}

TEST_F(VmFleetTest, BusyTagLivesWhileTheVmIsBusy) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(2);
  sim_.RunUntil(cost_.vm_startup_ms);
  const auto a = fleet.TryAcquire();
  const auto b = fleet.TryAcquire();
  ASSERT_TRUE(a.has_value() && b.has_value());
  fleet.SetBusyTag(*a, 7);
  fleet.SetBusyTag(*b, 0xffffffffu);
  EXPECT_EQ(fleet.BusyTag(*a), 7u);
  EXPECT_EQ(fleet.BusyTag(*b), 0xffffffffu);
  fleet.SetBusyTag(*a, 3);
  EXPECT_EQ(fleet.BusyTag(*a), 3u);
  fleet.Release(*a);
  EXPECT_DEATH(fleet.BusyTag(*a), "kBusy");
  EXPECT_EQ(fleet.BusyTag(*b), 0xffffffffu);
  fleet.Release(*b);
}

TEST_F(VmFleetTest, AcquireReleaseLifecycle) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(2);
  sim_.RunUntil(cost_.vm_startup_ms);
  auto a = fleet.TryAcquire();
  auto b = fleet.TryAcquire();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(fleet.TryAcquire().has_value());
  EXPECT_EQ(fleet.num_busy(), 2);
  fleet.Release(*a);
  EXPECT_EQ(fleet.num_idle(), 1);
  auto c = fleet.TryAcquire();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, *a);  // FIFO reuse
}

TEST_F(VmFleetTest, TargetDropCancelsPendingFree) {
  // Withdrawing a spot request before fulfilment is free.
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(10);
  fleet.SetTarget(0);
  EXPECT_EQ(fleet.num_pending(), 0);
  sim_.RunToCompletion();
  EXPECT_EQ(fleet.num_ready(), 0);
  EXPECT_DOUBLE_EQ(meter_.TotalDollars(), 0.0);
}

TEST_F(VmFleetTest, MinimumBillingAppliedOnQuickTerminate) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(1);
  sim_.RunUntil(cost_.vm_startup_ms);
  ASSERT_EQ(fleet.num_ready(), 1);
  // Drop the target immediately: the VM is inside its minimum billing
  // window, so termination is deferred until the window elapses.
  fleet.SetTarget(0);
  EXPECT_EQ(fleet.num_ready(), 1);
  sim_.RunToCompletion();
  EXPECT_EQ(fleet.num_ready(), 0);
  EXPECT_EQ(fleet.total_vms_terminated(), 1);
  EXPECT_DOUBLE_EQ(meter_.CategoryDollars(CostCategory::kVm),
                   cost_.VmCost(cost_.vm_min_billing_ms));
}

TEST_F(VmFleetTest, BusyVmTerminatesOnlyAfterRelease) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(1);
  sim_.RunUntil(cost_.vm_startup_ms);
  auto vm = fleet.TryAcquire();
  ASSERT_TRUE(vm.has_value());
  fleet.SetTarget(0);
  EXPECT_EQ(fleet.num_busy(), 1);  // still running the task
  sim_.RunUntil(cost_.vm_startup_ms + 5 * kMillisPerMinute);
  EXPECT_EQ(fleet.num_busy(), 1);
  fleet.Release(*vm);
  EXPECT_EQ(fleet.num_ready(), 0);  // terminated on release (past min bill)
  EXPECT_NEAR(meter_.CategoryDollars(CostCategory::kVm),
              cost_.VmCost(5 * kMillisPerMinute), 1e-12);
}

TEST_F(VmFleetTest, DeferredTerminationSkippedWhenTargetRecovers) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(1);
  sim_.RunUntil(cost_.vm_startup_ms);
  fleet.SetTarget(0);
  fleet.SetTarget(1);  // recover before the deferred check fires
  sim_.RunUntil(cost_.vm_startup_ms + 2 * kMillisPerMinute);
  EXPECT_EQ(fleet.num_ready(), 1);
  EXPECT_EQ(fleet.total_vms_terminated(), 0);
}

TEST_F(VmFleetTest, OnVmReadyCallbackFires) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  int ready = 0;
  fleet.SetOnVmReady([&](VmId) { ++ready; });
  fleet.SetTarget(4);
  sim_.RunToCompletion();
  EXPECT_EQ(ready, 4);
}

TEST_F(VmFleetTest, SpotMarketPricingUsed) {
  SpotMarket market(0.06);  // double the default price
  VmFleet fleet(&sim_, &cost_, &meter_, &market);
  fleet.SetTarget(1);
  sim_.RunUntil(cost_.vm_startup_ms + 10 * kMillisPerMinute);
  fleet.SetTarget(0);
  sim_.RunToCompletion();
  fleet.TerminateAll();
  EXPECT_NEAR(meter_.CategoryDollars(CostCategory::kVm),
              0.06 * 10.0 / 60.0, 1e-9);
}

TEST_F(VmFleetTest, InterruptionsReclaimAndReplaceVms) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.EnableInterruptions(/*seed=*/5, /*mean_lifetime_hours=*/0.05);
  fleet.SetTarget(4);
  // Over two simulated hours with ~3-minute lifetimes, many reclamations
  // happen; a maintained spot request keeps replacing capacity.
  sim_.RunUntil(2 * kMillisPerHour);
  EXPECT_GT(fleet.total_vms_interrupted(), 10);
  EXPECT_GT(fleet.total_vms_started(), fleet.total_vms_interrupted());
  EXPECT_EQ(fleet.num_ready() + fleet.num_pending(), 4);
  // Billed runtime reflects the reclaim duty cycle: each stream alternates
  // a ~3-minute lifetime with a 3-minute replacement startup, so roughly
  // half of 4 streams x 2 hours is billed (still-running VMs bill at
  // termination and are not counted yet).
  EXPECT_GT(meter_.CategoryDollars(CostCategory::kVm), 4 * 0.03 * 2 * 0.35);
  EXPECT_LT(meter_.CategoryDollars(CostCategory::kVm), 4 * 0.03 * 2);
}

TEST_F(VmFleetTest, BusyVmInterruptionFiresCallback) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.EnableInterruptions(/*seed=*/6, /*mean_lifetime_hours=*/0.02);
  std::vector<VmId> interrupted_busy;
  fleet.SetOnVmInterrupted(
      [&](VmId id) { interrupted_busy.push_back(id); });
  fleet.SetTarget(2);
  sim_.RunUntil(cost_.vm_startup_ms);
  // Keep both VMs busy forever; every reclamation must hit the callback.
  auto a = fleet.TryAcquire();
  auto b = fleet.TryAcquire();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  sim_.RunUntil(cost_.vm_startup_ms + kMillisPerHour);
  EXPECT_GE(interrupted_busy.size(), 1u);
  EXPECT_LE(interrupted_busy.size(), 2u);
  // Replacement VMs are never acquired here, so busy reclamations can only
  // have hit the two acquired VMs.
  for (VmId id : interrupted_busy) {
    EXPECT_TRUE(id == *a || id == *b);
  }
  // The fleet kept requesting replacements for reclaimed capacity.
  EXPECT_GT(fleet.total_vms_started(), 2);
}

TEST_F(VmFleetTest, TerminateAllFlushesBilling) {
  VmFleet fleet(&sim_, &cost_, &meter_);
  fleet.SetTarget(5);
  sim_.RunUntil(cost_.vm_startup_ms + kMillisPerHour);
  fleet.TerminateAll();
  EXPECT_EQ(fleet.num_ready(), 0);
  EXPECT_NEAR(meter_.CategoryDollars(CostCategory::kVm), 5 * 0.03, 1e-9);
}

class ElasticPoolTest : public ::testing::Test {
 protected:
  Simulation sim_;
  CostModel cost_;
  BillingMeter meter_;
};

TEST_F(ElasticPoolTest, InvokeBillsMilliseconds) {
  ElasticPool pool(&sim_, &cost_, &meter_, Rng(1));
  bool done = false;
  pool.Invoke(12'345, [&] { done = true; });
  sim_.RunToCompletion();
  EXPECT_TRUE(done);
  EXPECT_EQ(pool.total_invocations(), 1);
  EXPECT_EQ(pool.total_billed_ms(), 12'345);
  EXPECT_NEAR(meter_.CategoryDollars(CostCategory::kElasticPool),
              cost_.ElasticCost(12'345), 1e-15);
}

TEST_F(ElasticPoolTest, StartupLatencyWithinBounds) {
  ElasticPool pool(&sim_, &cost_, &meter_, Rng(2));
  int64_t within_tail = 0;
  const int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    const SimTimeMs lat = pool.SampleStartupLatency();
    EXPECT_GE(lat, 1);
    EXPECT_LE(lat, 5 * cost_.elastic_startup_tail_ms);
    if (lat <= cost_.elastic_startup_tail_ms) ++within_tail;
  }
  // The paper's measurement: 99% of lambdas start within 200 ms.
  EXPECT_GT(within_tail, kSamples * 98 / 100);
}

TEST_F(ElasticPoolTest, ConcurrencyTracked) {
  ElasticPool pool(&sim_, &cost_, &meter_, Rng(3));
  for (int i = 0; i < 50; ++i) pool.Invoke(10'000, nullptr);
  sim_.RunUntil(5'000);
  EXPECT_EQ(pool.num_active(), 50);
  sim_.RunToCompletion();
  EXPECT_EQ(pool.num_active(), 0);
  EXPECT_EQ(pool.peak_active(), 50);
}

TEST_F(ElasticPoolTest, ManualAcquireRelease) {
  ElasticPool pool(&sim_, &cost_, &meter_, Rng(4));
  ElasticSlotId slot = -1;
  pool.Acquire([&](ElasticSlotId id) { slot = id; });
  sim_.RunToCompletion();
  ASSERT_GE(slot, 0);
  EXPECT_EQ(pool.num_active(), 1);
  pool.Release(slot);
  EXPECT_EQ(pool.num_active(), 0);
}

TEST(ObjectStoreTest, PutGetDeleteBilling) {
  CostModel cost;
  BillingMeter meter;
  ObjectStore store(&cost, &meter);
  store.Put("a", 1000);
  store.Put("b", 2000);
  EXPECT_EQ(store.num_objects(), 2);
  EXPECT_EQ(store.bytes_stored(), 3000);
  auto got = store.Get("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1000);
  EXPECT_FALSE(store.Get("missing").has_value());  // billed 404
  EXPECT_TRUE(store.Delete("a"));
  EXPECT_FALSE(store.Delete("a"));
  EXPECT_EQ(store.bytes_stored(), 2000);
  EXPECT_EQ(store.num_puts(), 2);
  EXPECT_EQ(store.num_gets(), 2);
  EXPECT_NEAR(meter.CategoryDollars(CostCategory::kObjectStorePut),
              2 * cost.object_store_put_cost, 1e-15);
  EXPECT_NEAR(meter.CategoryDollars(CostCategory::kObjectStoreGet),
              2 * cost.object_store_get_cost, 1e-15);
}

TEST(ObjectStoreTest, OverwriteAdjustsBytes) {
  CostModel cost;
  BillingMeter meter;
  ObjectStore store(&cost, &meter);
  store.Put("k", 5000);
  store.Put("k", 100);
  EXPECT_EQ(store.num_objects(), 1);
  EXPECT_EQ(store.bytes_stored(), 100);
  EXPECT_EQ(store.peak_bytes_stored(), 5000);
}

TEST(ObjectStoreTest, MissingKeyGetIsBilledLikeS3404) {
  CostModel cost;
  BillingMeter meter;
  ObjectStore store(&cost, &meter);
  // S3 charges for GETs that return 404.
  EXPECT_FALSE(store.Get("nope").has_value());
  const StatusOr<int64_t> got = store.TryGet("nope");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_gets(), 2);
  EXPECT_EQ(store.num_retries(), 0);  // 404 is definitive, never retried
  EXPECT_NEAR(meter.CategoryDollars(CostCategory::kObjectStoreGet),
              2 * cost.object_store_get_cost, 1e-15);
}

TEST(ObjectStoreTest, DeleteOfMissingKeyIsFreeAndReturnsFalse) {
  CostModel cost;
  BillingMeter meter;
  ObjectStore store(&cost, &meter);
  EXPECT_FALSE(store.Delete("never-existed"));
  EXPECT_DOUBLE_EQ(meter.TotalDollars(), 0.0);
  store.Put("k", 10);
  EXPECT_TRUE(store.Delete("k"));
  EXPECT_FALSE(store.Delete("k"));  // second delete: gone, still free
  EXPECT_EQ(store.bytes_stored(), 0);
  // Only the PUT cost accrued; deletes never charge.
  EXPECT_NEAR(meter.TotalDollars(), cost.object_store_put_cost, 1e-15);
}

TEST(ObjectStoreTest, OverwriteKeepsBytesConsistentUnderChurn) {
  CostModel cost;
  BillingMeter meter;
  ObjectStore store(&cost, &meter);
  store.Put("a", 100);
  store.Put("b", 200);
  store.Put("a", 300);  // grow
  store.Put("b", 50);   // shrink
  EXPECT_EQ(store.num_objects(), 2);
  EXPECT_EQ(store.bytes_stored(), 350);
  EXPECT_TRUE(store.Delete("a"));
  EXPECT_EQ(store.bytes_stored(), 50);
  EXPECT_TRUE(store.Delete("b"));
  EXPECT_EQ(store.bytes_stored(), 0);
  EXPECT_EQ(store.num_objects(), 0);
}

TEST(ObjectStoreTest, InjectedErrorsAreBilledAndRetried) {
  CostModel cost;
  BillingMeter meter;
  ObjectStore store(&cost, &meter);
  FaultProfile profile;
  profile.store_error_rate = 0.5;
  FaultInjector injector(profile, 77);
  store.SetFaultInjector(&injector);
  for (int i = 0; i < 50; ++i) {
    // Append form, not `"k" + std::to_string(i)`: GCC 12 -O3 -Wrestrict
    // false-positives on that operator+ chain.
    std::string key = "k";
    key += std::to_string(i);
    store.Put(key, 100);
  }
  EXPECT_EQ(store.num_objects(), 50);
  EXPECT_EQ(store.bytes_stored(), 50 * 100);
  // At a 50% error rate, retries are a statistical certainty over 50 PUTs,
  // and every failed attempt billed a PUT request.
  EXPECT_GT(store.num_retries(), 0);
  EXPECT_EQ(store.num_puts(), 50 + store.num_retries());
  EXPECT_NEAR(meter.CategoryDollars(CostCategory::kObjectStorePut),
              static_cast<double>(store.num_puts()) *
                  cost.object_store_put_cost,
              1e-12);
}

// Put and Get run one retry loop, with the breaker gate applied only when a
// breaker is configured: a breaker that can never trip leaves every request,
// retry and dollar as they are without one.
TEST(ObjectStoreTest, UntrippedBreakerLeavesTheRetryLoopUnchanged) {
  CostModel cost;
  FaultProfile profile;
  profile.store_error_rate = 0.5;
  struct Run {
    int64_t retries, puts, gets;
    double dollars;
  };
  const auto run = [&](bool breaker) {
    BillingMeter meter;
    ObjectStore store(&cost, &meter);
    FaultInjector injector(profile, 91);
    store.SetFaultInjector(&injector);
    if (breaker) {
      // Above the store's 100-attempt bound: a streak of failures always
      // ends in a success before it reaches the threshold.
      CircuitBreakerOptions options;
      options.failure_threshold = 101;
      store.EnableCircuitBreaker(options);
    }
    for (int i = 0; i < 40; ++i) {
      std::string key = "k";
      key += std::to_string(i % 10);
      store.Put(key, 100 + i);
      EXPECT_EQ(store.Get(key), 100 + i);
      EXPECT_EQ(store.Get("missing"), std::nullopt);
    }
    if (breaker) {
      EXPECT_EQ(store.circuit_breaker()->trips(), 0);
      EXPECT_EQ(store.circuit_breaker()->rejections(), 0);
    }
    return Run{store.num_retries(), store.num_puts(), store.num_gets(),
               meter.TotalDollars()};
  };
  const Run plain = run(false);
  const Run gated = run(true);
  EXPECT_GT(plain.retries, 0);
  EXPECT_EQ(gated.retries, plain.retries);
  EXPECT_EQ(gated.puts, plain.puts);
  EXPECT_EQ(gated.gets, plain.gets);
  EXPECT_EQ(gated.dollars, plain.dollars);
}

TEST(ObjectStoreTest, TryPutSurfacesInjectedErrorWithoutStoring) {
  CostModel cost;
  BillingMeter meter;
  ObjectStore store(&cost, &meter);
  FaultProfile profile;
  profile.store_error_rate = 0.95;  // the clamped maximum
  FaultInjector injector(profile, 5);
  store.SetFaultInjector(&injector);
  // At 95% the first failure arrives almost immediately; find it.
  Status failed = Status::OK();
  std::string failed_key;
  for (int i = 0; i < 50 && failed.ok(); ++i) {
    // Built in a loop-local string (append form, not operator+): GCC 12
    // -O3 -Wrestrict false-positives on appends into a string declared
    // outside the loop.
    std::string key = "k";
    key += std::to_string(i);
    failed = store.TryPut(key, 123);
    failed_key = std::move(key);
  }
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_FALSE(store.Contains(failed_key));  // failed PUT stored nothing
  // Every attempt, failed ones included, billed a PUT request.
  EXPECT_NEAR(meter.CategoryDollars(CostCategory::kObjectStorePut),
              static_cast<double>(store.num_puts()) *
                  cost.object_store_put_cost,
              1e-12);
}

TEST(FaultInjectorTest, ZeroProfileConsumesNoRandomnessAndNeverFires) {
  FaultInjector injector(FaultProfile::None(), 99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.SampleElasticFailure(0, 10'000).has_value());
    EXPECT_FALSE(injector.SampleElasticStraggler());
    EXPECT_FALSE(injector.SampleStoreError(0));
    EXPECT_FALSE(injector.SampleVmLaunchFailure(0));
    EXPECT_EQ(injector.SampleShuffleCrashes(100, kMillisPerSecond), 0);
    // No chaos timeline configured: the temporal samplers are no-ops too.
    EXPECT_EQ(injector.timeline(), nullptr);
    EXPECT_FALSE(injector.HasStorms());
    EXPECT_EQ(injector.SampleStormReclaims(100, 0, kMillisPerSecond), 0);
    EXPECT_EQ(injector.SampleBrownoutReadLatency(0), 0);
  }
}

TEST(FaultInjectorTest, DeterministicForSeed) {
  FaultProfile profile = FaultProfile::Heavy();
  FaultInjector a(profile, 42);
  FaultInjector b(profile, 42);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.SampleElasticFailure(0, 5'000),
              b.SampleElasticFailure(0, 5'000));
    EXPECT_EQ(a.SampleStoreError(0), b.SampleStoreError(0));
    EXPECT_EQ(a.SampleVmLaunchFailure(0), b.SampleVmLaunchFailure(0));
    EXPECT_EQ(a.SampleShuffleCrashes(10, kMillisPerHour),
              b.SampleShuffleCrashes(10, kMillisPerHour));
  }
}

TEST(FaultInjectorTest, FailureTimeWithinDuration) {
  FaultProfile profile;
  profile.elastic_failure_rate = 0.5;
  FaultInjector injector(profile, 7);
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto at = injector.SampleElasticFailure(0, 10'000);
    if (at.has_value()) {
      ++failures;
      EXPECT_GE(*at, 1);
      EXPECT_LE(*at, 10'000);
    }
  }
  // ~50% failure rate.
  EXPECT_GT(failures, 800);
  EXPECT_LT(failures, 1200);
}

TEST(FaultInjectorTest, ShuffleCrashRateScalesWithNodesAndWindow) {
  FaultProfile profile;
  profile.shuffle_crash_rate_per_hour = 1.0;
  FaultInjector injector(profile, 13);
  int64_t crashes = 0;
  // 100 nodes for 100 simulated hours at 1 crash/node/hour.
  for (int i = 0; i < 100; ++i) {
    crashes += injector.SampleShuffleCrashes(100, kMillisPerHour);
  }
  EXPECT_GT(crashes, 8'000);
  EXPECT_LT(crashes, 12'000);
  EXPECT_EQ(injector.SampleShuffleCrashes(0, kMillisPerHour), 0);
}

TEST_F(ElasticPoolTest, ConcurrencyLimitThrottlesAtAdmission) {
  ElasticPool pool(&sim_, &cost_, &meter_, Rng(6));
  FaultProfile profile;
  profile.elastic_concurrency_limit = 2;
  FaultInjector injector(profile, 1);
  pool.SetFaultInjector(&injector);

  std::vector<ElasticSlotId> granted;
  auto grab = [&](ElasticSlotId id) { granted.push_back(id); };
  EXPECT_TRUE(pool.TryAcquire(grab).ok());
  EXPECT_TRUE(pool.TryAcquire(grab).ok());
  // Third request: both slots are taken (starting counts too).
  const Status throttled = pool.TryAcquire(grab);
  EXPECT_FALSE(throttled.ok());
  EXPECT_EQ(throttled.code(), StatusCode::kResourceExhausted);
  sim_.RunToCompletion();
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(pool.total_throttled(), 1);

  // Releasing a slot frees admission capacity.
  pool.Release(granted[0]);
  EXPECT_TRUE(pool.TryAcquire(grab).ok());
  sim_.RunToCompletion();
  EXPECT_EQ(granted.size(), 3u);
  pool.Release(granted[1]);
  pool.Release(granted[2]);
  EXPECT_EQ(pool.num_active(), 0);
}

TEST_F(ElasticPoolTest, NoLimitNeverThrottles) {
  ElasticPool pool(&sim_, &cost_, &meter_, Rng(6));
  FaultInjector injector(FaultProfile::None(), 1);
  pool.SetFaultInjector(&injector);
  std::vector<ElasticSlotId> granted;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        pool.TryAcquire([&](ElasticSlotId id) { granted.push_back(id); })
            .ok());
  }
  sim_.RunToCompletion();
  EXPECT_EQ(granted.size(), 100u);
  EXPECT_EQ(pool.total_throttled(), 0);
  for (ElasticSlotId id : granted) pool.Release(id);
  EXPECT_EQ(pool.num_active(), 0);
}

ChaosTimelineOptions AllProcessesOptions() {
  ChaosTimelineOptions chaos;
  chaos.horizon_ms = 6 * kMillisPerHour;
  chaos.outage.windows_per_hour = 1.0;
  chaos.storm.storms_per_hour = 2.0;
  chaos.brownout.windows_per_hour = 1.5;
  chaos.price_shock.shocks_per_hour = 0.5;
  return chaos;
}

TEST(ChaosTimelineTest, DefaultOptionsProduceNoTimeline) {
  ChaosTimelineOptions chaos;
  EXPECT_FALSE(chaos.any());
  // Rates without a horizon stay disabled too.
  chaos.outage.windows_per_hour = 5.0;
  EXPECT_FALSE(chaos.any());
  chaos.horizon_ms = kMillisPerHour;
  EXPECT_TRUE(chaos.any());
}

TEST(ChaosTimelineTest, WindowsAreDeterministicDisjointAndClipped) {
  const ChaosTimelineOptions chaos = AllProcessesOptions();
  ChaosTimeline a(chaos, 42);
  ChaosTimeline b(chaos, 42);
  const std::vector<const std::vector<ChaosWindow>*> all = {
      &a.outage_windows(), &a.storm_windows(), &a.brownout_windows(),
      &a.price_shock_windows()};
  const std::vector<const std::vector<ChaosWindow>*> all_b = {
      &b.outage_windows(), &b.storm_windows(), &b.brownout_windows(),
      &b.price_shock_windows()};
  for (size_t p = 0; p < all.size(); ++p) {
    ASSERT_EQ(all[p]->size(), all_b[p]->size());
    SimTimeMs prev_end = 0;
    for (size_t i = 0; i < all[p]->size(); ++i) {
      const ChaosWindow& w = (*all[p])[i];
      EXPECT_EQ(w.start_ms, (*all_b[p])[i].start_ms);
      EXPECT_EQ(w.end_ms, (*all_b[p])[i].end_ms);
      EXPECT_GE(w.start_ms, prev_end);
      EXPECT_GT(w.end_ms, w.start_ms);
      EXPECT_LE(w.end_ms, chaos.horizon_ms);
      prev_end = w.end_ms;
    }
  }
  // Over 6 hours at >= 0.5 windows/hour per process, every process should
  // have produced at least one window with this seed.
  for (const auto* windows : all) EXPECT_FALSE(windows->empty());
}

TEST(ChaosTimelineTest, ProcessStreamsAreIndependent) {
  // Enabling the storm process must not move the outage windows: each
  // process draws from its own stream.
  ChaosTimelineOptions outage_only;
  outage_only.horizon_ms = 6 * kMillisPerHour;
  outage_only.outage.windows_per_hour = 1.0;
  ChaosTimelineOptions both = outage_only;
  both.storm.storms_per_hour = 4.0;
  ChaosTimeline a(outage_only, 7);
  ChaosTimeline b(both, 7);
  ASSERT_EQ(a.outage_windows().size(), b.outage_windows().size());
  for (size_t i = 0; i < a.outage_windows().size(); ++i) {
    EXPECT_EQ(a.outage_windows()[i].start_ms, b.outage_windows()[i].start_ms);
    EXPECT_EQ(a.outage_windows()[i].end_ms, b.outage_windows()[i].end_ms);
  }
  EXPECT_TRUE(a.storm_windows().empty());
  EXPECT_FALSE(b.storm_windows().empty());
}

TEST(ChaosTimelineTest, PriceBreakpointsAreAscendingAndRevert) {
  ChaosTimelineOptions chaos;
  chaos.horizon_ms = 12 * kMillisPerHour;
  chaos.price_shock.shocks_per_hour = 1.0;
  chaos.price_shock.price_multiplier = 3.0;
  ChaosTimeline timeline(chaos, 11);
  ASSERT_FALSE(timeline.price_shock_windows().empty());
  const auto breakpoints = timeline.PriceBreakpoints(0.03);
  ASSERT_GE(breakpoints.size(), 3u);
  EXPECT_EQ(breakpoints.front().first, 0);
  EXPECT_DOUBLE_EQ(breakpoints.front().second, 0.03);
  for (size_t i = 1; i < breakpoints.size(); ++i) {
    EXPECT_GT(breakpoints[i].first, breakpoints[i - 1].first);
  }
  // The multiplier maps through PriceMultiplierAt inside shocks.
  const ChaosWindow& w = timeline.price_shock_windows().front();
  EXPECT_DOUBLE_EQ(timeline.PriceMultiplierAt(w.start_ms), 3.0);
  EXPECT_DOUBLE_EQ(timeline.PriceMultiplierAt(w.end_ms), 1.0);
}

TEST(FaultInjectorTest, OutageWindowsKillLaunchesAndElasticWork) {
  ChaosTimelineOptions chaos;
  chaos.horizon_ms = 6 * kMillisPerHour;
  chaos.outage.windows_per_hour = 1.0;
  chaos.outage.elastic_failure_fraction = 1.0;
  FaultInjector injector(FaultProfile::None(), chaos, 3);
  ASSERT_NE(injector.timeline(), nullptr);
  ASSERT_FALSE(injector.timeline()->outage_windows().empty());
  const ChaosWindow w = injector.timeline()->outage_windows().front();
  // Inside the window: every launch fails, every invocation dies.
  EXPECT_TRUE(injector.SampleVmLaunchFailure(w.start_ms));
  const auto death = injector.SampleElasticFailure(w.start_ms, 30'000);
  ASSERT_TRUE(death.has_value());
  EXPECT_GE(*death, 1);
  EXPECT_LE(*death, 30'000);
  // Outside (one past the closed-open end): the zero base rates apply.
  EXPECT_FALSE(injector.SampleVmLaunchFailure(w.end_ms));
  EXPECT_FALSE(injector.SampleElasticFailure(w.end_ms, 30'000).has_value());
}

TEST(FaultInjectorTest, StormReclaimsFireOnlyInsideStormWindows) {
  ChaosTimelineOptions chaos;
  chaos.horizon_ms = 6 * kMillisPerHour;
  chaos.storm.storms_per_hour = 2.0;
  chaos.storm.reclaim_fraction_per_minute = 1.0;  // reclaim everything
  FaultInjector injector(FaultProfile::None(), chaos, 9);
  ASSERT_TRUE(injector.HasStorms());
  ASSERT_FALSE(injector.timeline()->storm_windows().empty());
  const ChaosWindow w = injector.timeline()->storm_windows().front();
  // One full storm-minute at fraction 1.0 reclaims the whole fleet.
  EXPECT_EQ(injector.SampleStormReclaims(40, w.start_ms, kMillisPerMinute),
            40);
  EXPECT_EQ(injector.SampleStormReclaims(40, w.end_ms, kMillisPerMinute), 0);
}

TEST(FaultInjectorTest, BrownoutLatencyOnlyInsideWindows) {
  ChaosTimelineOptions chaos;
  chaos.horizon_ms = 6 * kMillisPerHour;
  chaos.brownout.windows_per_hour = 1.0;
  chaos.brownout.base_read_latency_ms = 200;
  chaos.brownout.latency_inflation = 5.0;
  FaultInjector injector(FaultProfile::None(), chaos, 17);
  ASSERT_FALSE(injector.timeline()->brownout_windows().empty());
  const ChaosWindow w = injector.timeline()->brownout_windows().front();
  const SimTimeMs inflated = injector.SampleBrownoutReadLatency(w.start_ms);
  // Inflated nominal is 1000ms +/- 25% jitter, with a possible 10x tail.
  EXPECT_GE(inflated, 750);
  EXPECT_LE(inflated, 12'500);
  EXPECT_EQ(injector.SampleBrownoutReadLatency(w.end_ms), 0);
  // Brownout error rate replaces a lower base rate inside the window.
  ChaosTimelineOptions certain = chaos;
  certain.brownout.store_error_rate = 0.95;
  FaultInjector noisy(FaultProfile::None(), certain, 17);
  const ChaosWindow w2 = noisy.timeline()->brownout_windows().front();
  int errors = 0;
  for (int i = 0; i < 200; ++i) {
    errors += noisy.SampleStoreError(w2.start_ms) ? 1 : 0;
  }
  EXPECT_GT(errors, 150);
  EXPECT_EQ(noisy.SampleStoreError(w2.end_ms), false);
}

TEST(VmFleetFaultTest, LaunchFailuresAreReRequestedUntilTargetMet) {
  Simulation sim;
  CostModel cost;
  BillingMeter meter;
  VmFleet fleet(&sim, &cost, &meter);
  FaultProfile profile;
  profile.vm_launch_failure_rate = 0.4;
  FaultInjector injector(profile, 21);
  fleet.SetFaultInjector(&injector);
  fleet.SetTarget(50);
  sim.RunToCompletion();
  // Despite a 40% launch failure rate, the maintained target converges.
  EXPECT_EQ(fleet.num_ready(), 50);
  EXPECT_GT(fleet.total_launch_failures(), 0);
  fleet.SetTarget(0);
  fleet.TerminateAll();
}

// ---------------------------------------------------------------------------
// VmFleet property test: random SetTarget / TryAcquire / Release /
// InterruptN / InterruptOneIdle sequences plus lifetime interrupts and
// launch failures. The model learns which VMs are live only through the
// fleet's callbacks and IsReady, and checks InterruptN against the naive
// ascending scan below.
// ---------------------------------------------------------------------------

/// Reference for InterruptN: scan every id up to the highest one that ever
/// started and take the first `count` READY VMs.
std::vector<VmId> NaiveStormVictims(const VmFleet& fleet, VmId max_id,
                                    int64_t count) {
  std::vector<VmId> victims;
  for (VmId id = 0;
       id <= max_id && static_cast<int64_t>(victims.size()) < count; ++id) {
    if (fleet.IsReady(id)) victims.push_back(id);
  }
  return victims;
}

struct FleetPropertyCase {
  uint64_t seed = 1;
  int64_t max_target = 16;
  double mean_lifetime_hours = 0.0;  // 0: no lifetime interrupts
  double launch_failure_rate = 0.0;
  int64_t steps = 2000;
  int64_t min_vms_retired = 0;  // keep stepping until this many retired
};

void RunFleetProperty(const FleetPropertyCase& c) {
  SCOPED_TRACE(testing::Message() << "seed " << c.seed << " max_target "
                                  << c.max_target);
  Simulation sim;
  CostModel cost;
  cost.vm_startup_ms = 5 * kMillisPerSecond;  // fast churn; 1 min billing
  BillingMeter meter;
  FaultProfile profile;
  profile.vm_launch_failure_rate = c.launch_failure_rate;
  FaultInjector injector(profile, c.seed * 7 + 1);
  VmFleet fleet(&sim, &cost, &meter);
  if (c.launch_failure_rate > 0.0) fleet.SetFaultInjector(&injector);
  if (c.mean_lifetime_hours > 0.0) {
    fleet.EnableInterruptions(c.seed * 7 + 2, c.mean_lifetime_hours);
  }

  std::set<VmId> live;  // READY per the model
  std::set<VmId> busy;  // acquired and not released
  std::vector<VmId> busy_victims;
  VmId max_id = -1;
  int64_t idle_victims = 0;
  fleet.SetOnVmReady([&](VmId id) {
    EXPECT_FALSE(live.count(id)) << "VM " << id << " started twice";
    live.insert(id);
    max_id = std::max(max_id, id);
  });
  fleet.SetOnVmInterrupted([&](VmId id) {
    EXPECT_TRUE(busy.count(id)) << "callback for non-busy VM " << id;
    busy_victims.push_back(id);
  });
  const auto idle_set = [&] {
    std::set<VmId> idle;
    std::set_difference(live.begin(), live.end(), busy.begin(), busy.end(),
                        std::inserter(idle, idle.end()));
    return idle;
  };
  // Drops the VMs the fleet retired during the last step. A retired busy
  // VM must have been reported through the interruption callback.
  const auto sync = [&] {
    for (auto it = live.begin(); it != live.end();) {
      if (fleet.IsReady(*it)) {
        ++it;
        continue;
      }
      if (busy.erase(*it) == 1) {
        EXPECT_NE(std::find(busy_victims.begin(), busy_victims.end(), *it),
                  busy_victims.end())
            << "busy VM " << *it << " retired silently";
      }
      it = live.erase(it);
    }
    ASSERT_EQ(static_cast<int64_t>(live.size()), fleet.num_ready());
    ASSERT_EQ(static_cast<int64_t>(busy.size()), fleet.num_busy());
  };

  Rng rng(c.seed);
  for (int64_t step = 0;
       step < c.steps || fleet.total_vms_terminated() < c.min_vms_retired;
       ++step) {
    busy_victims.clear();
    switch (rng.NextBounded(8)) {
      case 0:
        fleet.SetTarget(rng.NextInt(0, c.max_target));
        break;
      case 1:
      case 2: {
        const std::set<VmId> idle = idle_set();
        const auto got = fleet.TryAcquire();
        ASSERT_EQ(got.has_value(), !idle.empty());
        if (got.has_value()) {
          // A stale idle_ entry (a VM retired while idle) is never handed
          // out.
          ASSERT_TRUE(idle.count(*got)) << "acquired non-idle VM " << *got;
          busy.insert(*got);
        }
        break;
      }
      case 3:
        if (!busy.empty()) {
          auto it = busy.begin();
          std::advance(it, static_cast<std::ptrdiff_t>(
                               rng.NextBounded(busy.size())));
          const VmId id = *it;
          busy.erase(it);
          fleet.Release(id);
        }
        break;
      case 4: {
        const int64_t count = rng.NextInt(0, c.max_target / 2 + 1);
        const std::vector<VmId> expected =
            NaiveStormVictims(fleet, max_id, count);
        std::vector<VmId> expected_busy;
        for (VmId id : expected) {
          if (busy.count(id)) expected_busy.push_back(id);
        }
        const std::set<VmId> live_before = live;
        ASSERT_EQ(fleet.InterruptN(count),
                  static_cast<int64_t>(expected.size()));
        EXPECT_EQ(busy_victims, expected_busy);
        for (VmId id : live_before) {
          const bool victim =
              std::binary_search(expected.begin(), expected.end(), id);
          ASSERT_EQ(fleet.IsReady(id), !victim) << "VM " << id;
        }
        idle_victims +=
            static_cast<int64_t>(expected.size() - expected_busy.size());
        break;
      }
      case 5: {
        const std::set<VmId> idle = idle_set();
        ASSERT_EQ(fleet.InterruptOneIdle(), !idle.empty());
        int64_t gone = 0;
        for (VmId id : idle) gone += fleet.IsReady(id) ? 0 : 1;
        ASSERT_EQ(gone, idle.empty() ? 0 : 1);
        for (VmId id : busy) ASSERT_TRUE(fleet.IsReady(id));
        idle_victims += gone;
        break;
      }
      default:
        sim.RunUntil(sim.NowMs() + rng.NextInt(1, 30 * kMillisPerSecond));
        break;
    }
    sync();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(idle_victims, 0) << "no idle VM was reclaimed";
  EXPECT_GE(fleet.total_vms_terminated(), c.min_vms_retired);

  for (VmId id : busy) fleet.Release(id);
  busy.clear();
  fleet.TerminateAll();
  EXPECT_EQ(fleet.num_ready(), 0);
  EXPECT_EQ(fleet.total_vms_started(), fleet.total_vms_terminated());
  for (VmId id = 0; id <= max_id; ++id) EXPECT_FALSE(fleet.IsReady(id));
}

TEST(VmFleetPropertyTest, InterruptNMatchesNaiveScan) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    FleetPropertyCase c;
    c.seed = seed;
    c.max_target = seed % 2 == 0 ? 8 : 40;
    c.mean_lifetime_hours = seed % 3 == 0 ? 0.0 : 0.02;
    c.launch_failure_rate = seed % 4 == 0 ? 0.1 : 0.0;
    RunFleetProperty(c);
  }
}

// Over 10^5 launched-and-retired VMs the ready index spans thousands of
// words, most of them empty; victims and acquisitions must still match.
TEST(VmFleetPropertyTest, LongHistoryMatchesNaiveScan) {
  FleetPropertyCase c;
  c.seed = 99;
  c.max_target = 64;
  c.mean_lifetime_hours = 0.005;  // 18 s mean lifetime
  c.launch_failure_rate = 0.05;
  c.min_vms_retired = 100000;
  RunFleetProperty(c);
}

}  // namespace
}  // namespace cackle
