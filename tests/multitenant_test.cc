// Multi-tenant engine tests: exact per-tenant invoices (no epsilon),
// residual-distribution drift regression, round-robin fairness/isolation,
// and multi-tenant determinism (run-to-run and across sweep thread counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/cost_model.h"
#include "common/cost_ledger.h"
#include "common/observability.h"
#include "engine/engine.h"
#include "sim/sweep_runner.h"
#include "strategy/dynamic_strategy.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace cackle {
namespace {

// ---------------------------------------------------------------------------
// CostLedger exactness (the no-epsilon invariant).
// ---------------------------------------------------------------------------

// Adversarial non-representable dollar amounts: decimal fractions scaled by
// coprime multipliers so running sums drift in the low bits.
double MessyDollars(int64_t i, int64_t category) {
  return 0.01 * static_cast<double>((i * 7919 + category * 104729) % 997 + 1) /
         3.0;
}

// The canonical invoice fold the exactness invariant is stated in: real
// tenants in ascending id order, then the overhead pseudo-tenant last.
double FoldInvoices(const std::map<int64_t, CostLedger::Invoice>& invoices,
                    size_t category) {
  double fold = 0.0;
  for (const auto& [tenant, invoice] : invoices) {
    if (tenant == CostLedger::kOverheadTenantId) continue;
    fold += invoice.dollars[category];
  }
  auto overhead = invoices.find(CostLedger::kOverheadTenantId);
  if (overhead != invoices.end()) fold += overhead->second.dollars[category];
  return fold;
}

TEST(MultiTenantLedgerTest, ThousandTenantInvoicesSumToBillExactly) {
  CostLedger ledger;
  ledger.EnsureCategories({"vm", "elastic", "store"});
  const int64_t kTenants = 1000;
  const int64_t kQueriesPerTenant = 3;
  int64_t query_id = 0;
  for (int64_t t = 0; t < kTenants; ++t) {
    for (int64_t q = 0; q < kQueriesPerTenant; ++q, ++query_id) {
      ledger.SetTenant(query_id, t);
      for (size_t c = 0; c < 3; ++c) {
        ledger.Attribute(query_id, c, MessyDollars(query_id, c),
                         /*usage=*/MessyDollars(query_id + 1, c + 1));
      }
    }
  }
  // Bills with both positive and negative residuals relative to the
  // attributed sums, all decimal fractions a binary double cannot represent.
  std::vector<double> billed(3);
  for (size_t c = 0; c < 3; ++c) {
    billed[c] = ledger.CategoryAttributed(c) * (c == 1 ? 0.9 : 1.3) + 0.07;
  }
  ledger.FinalizeAgainst(billed);

  ASSERT_EQ(ledger.tenant_invoices().size(),
            static_cast<size_t>(kTenants) + 1);  // + overhead tenant -1
  for (size_t c = 0; c < 3; ++c) {
    // The invariant, verbatim: the canonical fold of the per-tenant
    // invoices reproduces the billed amount bit for bit. No epsilon.
    EXPECT_EQ(FoldInvoices(ledger.tenant_invoices(), c), billed[c])
        << "category " << c;
    EXPECT_EQ(ledger.CategoryAttributed(c), billed[c]);
  }
  // Each invoice is exactly the fold of its own tenant's rows.
  std::map<int64_t, std::vector<const CostLedger::Row*>> by_tenant;
  for (const auto& [qid, row] : ledger.rows()) {
    by_tenant[ledger.TenantOf(qid)].push_back(&row);
  }
  for (const auto& [tenant, invoice] : ledger.tenant_invoices()) {
    for (size_t c = 0; c < 3; ++c) {
      double fold = 0.0;
      for (const CostLedger::Row* row : by_tenant.at(tenant)) {
        fold += row->dollars[c];
      }
      EXPECT_EQ(fold, invoice.dollars[c]) << "tenant " << tenant;
    }
  }
}

// Satellite regression: with many queries the old last-user-takes-the-
// remainder arithmetic drifted (the attribution-order running sum is not
// the canonical fold). 10k single-tenant queries with messy values must
// still close the books bit for bit.
TEST(MultiTenantLedgerTest, TenThousandQueryResidualHasNoDrift) {
  CostLedger ledger;
  ledger.EnsureCategories({"vm", "elastic"});
  for (int64_t q = 0; q < 10'000; ++q) {
    ledger.Attribute(q, 0, MessyDollars(q, 0), MessyDollars(q, 3));
    if (q % 3 != 0) ledger.AddUsage(q, 1, MessyDollars(q, 5));
  }
  const std::vector<double> billed = {ledger.CategoryAttributed(0) + 123.456,
                                      77.7};
  ledger.FinalizeAgainst(billed);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(FoldInvoices(ledger.tenant_invoices(), c), billed[c])
        << "category " << c;
  }
}

TEST(MultiTenantLedgerTest, ResidualStaysWithinTheTenantThatUsedIt) {
  // Tenant 7 records no usage in category 0, so none of category 0's
  // residual may leak into its invoice: the invoice equals its direct
  // attribution exactly (the forcing loop only ever touches overhead).
  CostLedger ledger;
  ledger.EnsureCategories({"vm", "elastic"});
  ledger.SetTenant(0, 3);
  ledger.SetTenant(1, 7);
  ledger.Attribute(0, 0, 1.1, /*usage=*/10.0);
  ledger.Attribute(1, 0, 2.2, /*usage=*/0.0);
  ledger.Attribute(1, 1, 0.3, /*usage=*/4.0);
  ledger.FinalizeAgainst({5.0, 0.9});
  EXPECT_EQ(ledger.tenant_invoices().at(7).dollars[0], 2.2);
  EXPECT_GT(ledger.tenant_invoices().at(3).dollars[0], 1.1);
  EXPECT_EQ(FoldInvoices(ledger.tenant_invoices(), 0), 5.0);
}

// ---------------------------------------------------------------------------
// Engine-level invoices and tallies.
// ---------------------------------------------------------------------------

std::vector<QueryArrival> GenerateTenantWorkload(const ProfileLibrary& lib,
                                                 int64_t n, SimTimeMs duration,
                                                 int64_t tenants,
                                                 uint64_t seed) {
  WorkloadGenerator gen(&lib);
  WorkloadOptions opts;
  opts.num_queries = n;
  opts.duration_ms = duration;
  opts.arrival_period_ms = duration / 3;
  opts.num_tenants = tenants;
  opts.tenant_skew = 1.0;
  opts.seed = seed;
  return gen.Generate(opts);
}

TEST(MultiTenantEngineTest, TenantInvoicesSumToBillingExactly) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals =
      GenerateTenantWorkload(lib, 200, kMillisPerHour / 4, 50, 4242);
  CostModel cost;
  Observability obs;
  EngineOptions opts;
  opts.observability = &obs;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);

  ASSERT_TRUE(obs.ledger.finalized());
  for (size_t c = 0; c < static_cast<size_t>(CostCategory::kNumCategories);
       ++c) {
    // Exactly the meter's books — every cent of every category lands on
    // exactly one tenant (or overhead). No epsilon.
    EXPECT_EQ(FoldInvoices(obs.ledger.tenant_invoices(), c),
              r.billing.CategoryDollars(static_cast<CostCategory>(c)))
        << "category " << c;
  }
  // EngineResult mirrors the ledger's per-tenant totals.
  for (const auto& [tenant, outcome] : r.tenants) {
    EXPECT_EQ(outcome.invoice_dollars, obs.ledger.TenantDollars(tenant));
  }
  EXPECT_GT(r.tenants.size(), 10u);
}

// Satellite: EngineResult tally consistency under admission control. A query
// enters the admission queue at most once (per-tenant FIFO), so
// queries_deferred counts each query at most once and the global
// tallies are exactly the sums of the per-tenant slices.
TEST(MultiTenantEngineTest, DeferralAndShedTalliesAreConsistent) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals =
      GenerateTenantWorkload(lib, 150, kMillisPerHour / 6, 4, 77);
  CostModel cost;
  EngineOptions opts;
  opts.admission.max_outstanding_tasks = 24;
  opts.admission.shed_after_ms = 3 * kMillisPerMinute;
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, lib);

  const int64_t n = static_cast<int64_t>(arrivals.size());
  EXPECT_EQ(r.queries_completed + r.queries_shed, n);
  EXPECT_GT(r.queries_deferred, 0);
  EXPECT_LE(r.queries_deferred, n) << "a query was deferred more than once";
  // Every shed query waited in the queue first, so shed <= deferred.
  EXPECT_LE(r.queries_shed, r.queries_deferred);
  EXPECT_LE(r.admission_queue_peak, r.queries_deferred);
  EXPECT_GE(r.tenant_queue_peak, 1);
  EXPECT_LE(r.tenant_queue_peak, r.admission_queue_peak);

  int64_t completed = 0, shed = 0, deferred = 0;
  std::map<int32_t, int64_t> arrivals_by_tenant;
  for (const QueryArrival& qa : arrivals) ++arrivals_by_tenant[qa.tenant];
  for (const auto& [tenant, outcome] : r.tenants) {
    completed += outcome.queries_completed;
    shed += outcome.queries_shed;
    deferred += outcome.queries_deferred;
    EXPECT_EQ(outcome.queries_completed + outcome.queries_shed,
              arrivals_by_tenant.at(tenant));
    EXPECT_LE(outcome.queries_deferred, arrivals_by_tenant.at(tenant));
  }
  EXPECT_EQ(completed, r.queries_completed);
  EXPECT_EQ(shed, r.queries_shed);
  EXPECT_EQ(deferred, r.queries_deferred);
  EXPECT_EQ(r.tenants.size(), arrivals_by_tenant.size());
}

// ---------------------------------------------------------------------------
// Fairness / isolation.
// ---------------------------------------------------------------------------

std::vector<QueryArrival> VictimArrivals() {
  // Tenant 0: 20 interactive queries spread over 10 minutes.
  std::vector<QueryArrival> v;
  for (int i = 0; i < 20; ++i) {
    QueryArrival qa;
    qa.arrival_ms = static_cast<SimTimeMs>(i) * 30 * kMillisPerSecond;
    qa.profile_index = static_cast<size_t>(i % 4);
    qa.tenant = 0;
    v.push_back(qa);
  }
  return v;
}

EngineOptions FairnessOptions() {
  EngineOptions opts;
  opts.enable_shuffle = false;
  opts.admission.max_outstanding_tasks = 16;
  opts.admission.shed_after_ms = 2 * kMillisPerMinute;
  return opts;
}

// The DRR guarantee: a backlogged tenant with equal weight receives at
// least its fair share of admissions, so an abusive tenant flooding the
// queue cannot starve the victim. All victim queries must complete (never
// shed) with bounded extra latency relative to an uncontended run.
TEST(MultiTenantFairnessTest, AbusiveTenantCannotStarveVictim) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  CostModel cost;

  // Baseline: the victim alone.
  EngineResult solo;
  {
    CackleEngine engine(&cost, FairnessOptions());
    solo = engine.Run(VictimArrivals(), lib);
  }
  EXPECT_EQ(solo.queries_shed, 0);

  // Contended: tenant 1 floods 300 queries in the first minute.
  auto arrivals = VictimArrivals();
  for (int i = 0; i < 300; ++i) {
    QueryArrival qa;
    qa.arrival_ms = static_cast<SimTimeMs>(i) * 200;
    qa.profile_index = static_cast<size_t>(i % 4);
    qa.tenant = 1;
    arrivals.push_back(qa);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const QueryArrival& a, const QueryArrival& b) {
              return a.arrival_ms < b.arrival_ms;
            });
  EngineResult contended;
  {
    CackleEngine engine(&cost, FairnessOptions());
    contended = engine.Run(arrivals, lib);
  }

  // Isolation: every victim query completed, none shed, while the abusive
  // tenant bore the shedding.
  const auto& victim = contended.tenants.at(0);
  EXPECT_EQ(victim.queries_completed, 20);
  EXPECT_EQ(victim.queries_shed, 0);
  EXPECT_GT(contended.tenants.at(1).queries_deferred, 0);
  // Fairness bound: with equal weights the victim owns at least half of
  // every admission round, so its p99 under flood stays within a small
  // constant factor (plus queueing delay bounded by the shed SLO) of solo.
  const double solo_p99 = solo.tenants.at(0).latencies_s.Percentile(99);
  const double contended_p99 = victim.latencies_s.Percentile(99);
  EXPECT_LE(contended_p99,
            3.0 * solo_p99 + 2.0 * MsToSeconds(2 * kMillisPerMinute))
      << "victim p99 " << contended_p99 << "s vs solo " << solo_p99 << "s";
}

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

EngineResult RunMultiTenant(uint64_t seed) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  const auto arrivals =
      GenerateTenantWorkload(lib, 120, kMillisPerHour / 6, 8, seed);
  CostModel cost;
  Observability obs;
  EngineOptions opts;
  opts.observability = &obs;
  opts.admission.max_outstanding_tasks = 32;
  CackleEngine engine(&cost, opts);
  return engine.Run(arrivals, lib);
}

void ExpectSameTenantResults(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_deferred, b.queries_deferred);
  EXPECT_EQ(a.tenant_queue_peak, b.tenant_queue_peak);
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  ASSERT_EQ(a.latencies_s.samples(), b.latencies_s.samples());
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  auto bt = b.tenants.begin();
  for (auto at = a.tenants.begin(); at != a.tenants.end(); ++at, ++bt) {
    EXPECT_EQ(at->first, bt->first);
    EXPECT_EQ(at->second.queries_completed, bt->second.queries_completed);
    EXPECT_EQ(at->second.invoice_dollars, bt->second.invoice_dollars);
    ASSERT_EQ(at->second.latencies_s.samples(),
              bt->second.latencies_s.samples());
  }
}

TEST(MultiTenantDeterminismTest, ZeroFaultRunIsBitIdenticalRunToRun) {
  const EngineResult a = RunMultiTenant(99);
  const EngineResult b = RunMultiTenant(99);
  EXPECT_GT(a.tenants.size(), 1u);
  ExpectSameTenantResults(a, b);
}

struct SweepCell {
  std::vector<double> latencies;
  std::vector<double> invoices;
  SimTimeMs makespan_ms = 0;
};

TEST(MultiTenantDeterminismTest, SweepIsByteIdenticalAcrossThreadCounts) {
  const auto run_sweep = [](int threads) {
    SweepRunner runner(threads);
    return runner.Map<SweepCell>(4, [](int cell) {
      const EngineResult r = RunMultiTenant(SweepRunner::CellSeed(7, cell));
      SweepCell out;
      out.latencies = r.latencies_s.samples();
      for (const auto& [tenant, outcome] : r.tenants) {
        out.invoices.push_back(outcome.invoice_dollars);
      }
      out.makespan_ms = r.makespan_ms;
      return out;
    });
  };
  const auto one = run_sweep(1);
  const auto four = run_sweep(4);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].makespan_ms, four[i].makespan_ms);
    ASSERT_EQ(one[i].latencies, four[i].latencies);
    ASSERT_EQ(one[i].invoices, four[i].invoices);
  }
}

// ---------------------------------------------------------------------------
// Workload generation and strategy aggregation.
// ---------------------------------------------------------------------------

TEST(MultiTenantWorkloadTest, TenantOverlayLeavesArrivalsUntouched) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions base;
  base.num_queries = 500;
  base.duration_ms = kMillisPerHour;
  base.seed = 11;
  const auto single = gen.Generate(base);

  WorkloadOptions multi = base;
  multi.num_tenants = 16;
  multi.tenant_skew = 1.0;
  const auto tenanted = gen.Generate(multi);

  // Same seed => identical arrival times, profiles, and batch flags; only
  // the tenant column differs (separate RNG stream).
  ASSERT_EQ(single.size(), tenanted.size());
  std::map<TenantId, int64_t> counts;
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].arrival_ms, tenanted[i].arrival_ms);
    EXPECT_EQ(single[i].profile_index, tenanted[i].profile_index);
    EXPECT_EQ(single[i].batch, tenanted[i].batch);
    EXPECT_EQ(single[i].tenant, 0);
    ASSERT_GE(tenanted[i].tenant, 0);
    ASSERT_LT(tenanted[i].tenant, 16);
    ++counts[tenanted[i].tenant];
  }
  EXPECT_GT(counts.size(), 4u);
  // Zipf skew: tenant 0 is the heaviest.
  EXPECT_GT(counts[0], counts.count(15) ? counts[15] : 0);
}

// The floor is the sum of each tenant's peak over the trailing 60 seconds.
TEST(MultiTenantStrategyTest, IsolationFloorTracksWindowPeaks) {
  CostModel cost;
  DynamicStrategy strategy(&cost);
  EXPECT_EQ(strategy.TenantIsolationFloor(), 0);

  strategy.ObserveTenantDemand({{0, 10}, {1, 20}});
  EXPECT_EQ(strategy.TenantIsolationFloor(), 30);
  // Lower demand keeps the window peak alive...
  for (int s = 1; s < 60; ++s) strategy.ObserveTenantDemand({{0, 2}});
  EXPECT_EQ(strategy.TenantIsolationFloor(), 30);
  // ...until it expires out of the window; idle tenants drop out entirely.
  strategy.ObserveTenantDemand({{0, 2}});
  EXPECT_EQ(strategy.TenantIsolationFloor(), 2);
}

}  // namespace
}  // namespace cackle
