// The logical plan layer: schema inference, optimizer rules (filter
// pushdown, broadcast selection, column pruning), and lowering to physical
// StagePlans whose results match both unoptimized execution and the
// hand-built TPC-H physical plans.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/datagen.h"
#include "exec/logical.h"
#include "exec/lowering.h"
#include "exec/optimizer.h"
#include "exec/plan.h"
#include "exec/tpch_logical.h"
#include "exec/tpch_queries.h"

namespace cackle::exec {
namespace {

const Catalog& TestCatalog() {
  static const Catalog* cat = new Catalog(GenerateTpch(0.01));
  return *cat;
}

const TableResolver& Resolver() {
  static const TableResolver* resolver =
      new TableResolver(TableResolver::ForCatalog(TestCatalog()));
  return *resolver;
}

/// Q6 expressed logically.
LogicalNodePtr LogicalQ6() {
  const int64_t lo = DateFromCivil(1994, 1, 1);
  const int64_t hi = DateFromCivil(1995, 1, 1);
  LogicalNodePtr scan = LScan("lineitem");
  LogicalNodePtr filtered = LFilter(
      LFilter(LFilter(LFilter(std::move(scan),
                              Ge(Col("l_shipdate"), Lit(lo))),
                      Lt(Col("l_shipdate"), Lit(hi))),
              Between(Col("l_discount"), Lit(0.05), Lit(0.07))),
      Lt(Col("l_quantity"), Lit(24.0)));
  LogicalNodePtr projected = LProject(
      std::move(filtered),
      {{Mul(Col("l_extendedprice"), Col("l_discount")), "amount"}});
  return LAggregate(std::move(projected), {},
                    {{AggOp::kSum, Col("amount"), "revenue"}});
}

/// Q3 expressed logically.
LogicalNodePtr LogicalQ3() {
  const int64_t date = DateFromCivil(1995, 3, 15);
  LogicalNodePtr cust = LFilter(LScan("customer"),
                                Eq(Col("c_mktsegment"), Lit("BUILDING")));
  LogicalNodePtr orders =
      LFilter(LScan("orders"), Lt(Col("o_orderdate"), Lit(date)));
  LogicalNodePtr co = LJoin(std::move(orders), std::move(cust),
                            {"o_custkey"}, {"c_custkey"},
                            JoinType::kLeftSemi);
  LogicalNodePtr line =
      LFilter(LScan("lineitem"), Gt(Col("l_shipdate"), Lit(date)));
  LogicalNodePtr lo = LJoin(std::move(line), std::move(co), {"l_orderkey"},
                            {"o_orderkey"}, JoinType::kInner);
  LogicalNodePtr shaped = LProject(
      std::move(lo),
      {{Col("l_orderkey"), "l_orderkey"},
       {Col("o_orderdate"), "o_orderdate"},
       {Col("o_shippriority"), "o_shippriority"},
       {Mul(Col("l_extendedprice"), Sub(Lit(1.0), Col("l_discount"))),
        "revenue"}});
  LogicalNodePtr agg = LAggregate(
      std::move(shaped), {"l_orderkey", "o_orderdate", "o_shippriority"},
      {{AggOp::kSum, Col("revenue"), "revenue"}});
  return LSort(std::move(agg),
               {{"revenue", false}, {"o_orderdate", true}}, 10);
}

void ExpectTablesNear(const Table& a, const Table& b, double rel_tol) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.num_columns(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      if (a.column_def(c).type == DataType::kFloat64) {
        const double x = a.column(c).doubles()[static_cast<size_t>(r)];
        const double y = b.column(c).doubles()[static_cast<size_t>(r)];
        ASSERT_NEAR(x, y, rel_tol * (1.0 + std::abs(x)));
      } else {
        ASSERT_EQ(a.column(c).ValueToString(r), b.column(c).ValueToString(r))
            << "col " << a.column_def(c).name << " row " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Schema inference
// ---------------------------------------------------------------------------

TEST(LogicalSchemaTest, ScanFilterProjectJoinAggregate) {
  auto schema = OutputSchema(LogicalQ3(), Resolver());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_EQ(schema->size(), 4u);
  EXPECT_EQ((*schema)[0].name, "l_orderkey");
  EXPECT_EQ((*schema)[3].name, "revenue");
  EXPECT_EQ((*schema)[3].type, DataType::kFloat64);
}

TEST(LogicalSchemaTest, RejectsUnknownTableAndColumn) {
  EXPECT_FALSE(OutputSchema(LScan("nonexistent"), Resolver()).ok());
  auto bad = LProject(LScan("nation"), {{Col("no_such_column"), "x"}});
  EXPECT_FALSE(OutputSchema(bad, Resolver()).ok());
  auto dup = LJoin(LScan("nation"), LScan("nation"), {"n_nationkey"},
                   {"n_nationkey"});
  EXPECT_FALSE(OutputSchema(dup, Resolver()).ok());  // duplicate columns
}

TEST(LogicalSchemaTest, SemiJoinKeepsLeftOnly) {
  auto semi = LJoin(LScan("orders"), LScan("customer"), {"o_custkey"},
                    {"c_custkey"}, JoinType::kLeftSemi);
  auto schema = OutputSchema(semi, Resolver());
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->size(), TestCatalog().orders.schema().size());
}

// ---------------------------------------------------------------------------
// Optimizer rules
// ---------------------------------------------------------------------------

TEST(OptimizerTest, FiltersPushIntoScans) {
  auto plan = Optimize(LogicalQ6(), Resolver());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string tree = LogicalToString(*plan);
  // All four conjuncts land in the scan; no Filter node survives.
  EXPECT_EQ(tree.find("Filter"), std::string::npos) << tree;
  EXPECT_NE(tree.find("predicates=4"), std::string::npos) << tree;
}

TEST(OptimizerTest, FilterSplitsAcrossJoinSides) {
  // A conjunction over both join sides must split: each conjunct lands in
  // its side's scan.
  auto join = LJoin(LScan("orders"), LScan("customer"), {"o_custkey"},
                    {"c_custkey"});
  auto filtered =
      LFilter(LFilter(std::move(join),
                      Gt(Col("o_totalprice"), Lit(1000.0))),
              Eq(Col("c_mktsegment"), Lit("BUILDING")));
  auto plan = Optimize(std::move(filtered), Resolver());
  ASSERT_TRUE(plan.ok());
  const std::string tree = LogicalToString(*plan);
  EXPECT_EQ(tree.find("Filter"), std::string::npos) << tree;
  EXPECT_NE(tree.find("Scan(orders"), std::string::npos);
  // Both scans carry exactly one pushed predicate.
  size_t count = 0;
  size_t pos = 0;
  while ((pos = tree.find("predicates=1", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 2u) << tree;
}

TEST(OptimizerTest, OuterJoinRightFilterStaysAbove) {
  // Pushing a right-side conjunct below a left-outer join would change the
  // padding semantics; it must stay above the join.
  auto join = LJoin(LScan("customer"), LScan("orders"), {"c_custkey"},
                    {"o_custkey"}, JoinType::kLeftOuter);
  auto filtered =
      LFilter(std::move(join), Gt(Col("o_totalprice"), Lit(1000.0)));
  auto plan = Optimize(std::move(filtered), Resolver());
  ASSERT_TRUE(plan.ok());
  const std::string tree = LogicalToString(*plan);
  EXPECT_NE(tree.find("Filter(conjuncts=1)"), std::string::npos) << tree;
}

TEST(OptimizerTest, ColumnPruningShrinksScans) {
  auto plan = Optimize(LogicalQ6(), Resolver());
  ASSERT_TRUE(plan.ok());
  // Find the scan node and inspect its column list: only the four columns
  // the query touches survive (out of lineitem's 16).
  LogicalNodePtr node = *plan;
  while (node->type != LogicalOpType::kScan) node = node->children[0];
  EXPECT_EQ(node->scan_columns.size(), 4u) << LogicalToString(*plan);
}

TEST(OptimizerTest, BroadcastChosenForSmallSide) {
  auto join = LJoin(LScan("lineitem"), LScan("nation"), {"l_suppkey"},
                    {"n_nationkey"});
  auto plan = Optimize(std::move(join), Resolver());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->broadcast_right);
  // A big right side stays partitioned: at SF 0.01 lineitem's estimate is
  // above the optimizer's 50 000-row broadcast threshold.
  EXPECT_GT(EstimateRows(LScan("lineitem"), Resolver()), 50'000);
  auto big = Optimize(LJoin(LScan("orders"), LScan("lineitem"),
                            {"o_orderkey"}, {"l_orderkey"}),
                      Resolver());
  ASSERT_TRUE(big.ok());
  EXPECT_FALSE((*big)->broadcast_right);
}

TEST(OptimizerTest, EstimateRowsHeuristics) {
  EXPECT_EQ(EstimateRows(LScan("nation"), Resolver()), 25);
  auto filtered = LFilter(LScan("lineitem"), Lt(Col("l_quantity"), Lit(1.0)));
  EXPECT_LT(EstimateRows(filtered, Resolver()),
            EstimateRows(LScan("lineitem"), Resolver()));
  auto join = LJoin(LScan("lineitem"), LScan("nation"), {"l_suppkey"},
                    {"n_nationkey"});
  EXPECT_EQ(EstimateRows(join, Resolver()), 25);
}

TEST(OptimizerTest, RejectsInvalidPlans) {
  auto bad = LFilter(LScan("lineitem"), Gt(Col("no_such"), Lit(1.0)));
  EXPECT_FALSE(Optimize(std::move(bad), Resolver()).ok());
}

// ---------------------------------------------------------------------------
// Lowering + end-to-end equivalence
// ---------------------------------------------------------------------------

Table RunLogical(const LogicalNodePtr& plan, int tasks, bool optimize) {
  LogicalNodePtr p = plan;
  if (optimize) {
    auto optimized = Optimize(p, Resolver());
    CACKLE_CHECK(optimized.ok()) << optimized.status().ToString();
    p = *optimized;
  }
  auto lowered = LowerToStagePlan(p, Resolver(), PlanConfig{tasks});
  CACKLE_CHECK(lowered.ok()) << lowered.status().ToString();
  PlanExecutor executor;
  return executor.Execute(*lowered);
}

TEST(LoweringTest, Q6MatchesHandBuiltPhysicalPlan) {
  PlanExecutor executor;
  const Table expected =
      executor.Execute(BuildTpchPlan(6, TestCatalog(), PlanConfig{4}));
  const Table optimized = RunLogical(LogicalQ6(), 4, /*optimize=*/true);
  const Table unoptimized = RunLogical(LogicalQ6(), 4, /*optimize=*/false);
  ExpectTablesNear(expected, optimized, 1e-9);
  ExpectTablesNear(expected, unoptimized, 1e-9);
}

TEST(LoweringTest, Q3MatchesHandBuiltPhysicalPlan) {
  PlanExecutor executor;
  const Table expected =
      executor.Execute(BuildTpchPlan(3, TestCatalog(), PlanConfig{4}));
  const Table from_logical = RunLogical(LogicalQ3(), 4, /*optimize=*/true);
  ExpectTablesNear(expected, from_logical, 1e-9);
}

TEST(LoweringTest, PartitionInvariance) {
  const Table serial = RunLogical(LogicalQ3(), 1, true);
  const Table parallel = RunLogical(LogicalQ3(), 5, true);
  ExpectTablesNear(serial, parallel, 1e-9);
}

TEST(LoweringTest, OptimizedEqualsUnoptimized) {
  // The optimizer must be a pure performance transformation.
  const Table a = RunLogical(LogicalQ3(), 3, /*optimize=*/true);
  const Table b = RunLogical(LogicalQ3(), 3, /*optimize=*/false);
  ExpectTablesNear(a, b, 1e-9);
}

TEST(LoweringTest, BroadcastAndPartitionedJoinsAgree) {
  auto make = [] {
    return LJoin(
        LFilter(LScan("lineitem"), Lt(Col("l_quantity"), Lit(10.0))),
        LScan("supplier"), {"l_suppkey"}, {"s_suppkey"});
  };
  auto broadcast = make();
  broadcast->broadcast_right = true;
  auto partitioned = make();
  partitioned->broadcast_right = false;
  auto lb = LowerToStagePlan(broadcast, Resolver(), PlanConfig{4});
  auto lp = LowerToStagePlan(partitioned, Resolver(), PlanConfig{4});
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(lp.ok());
  PlanExecutor executor;
  const Table a = executor.Execute(*lb);
  Table b = executor.Execute(*lp);
  // Row order may differ between join strategies; compare sorted by a key.
  const Table sa = SortBy(a, {{"l_orderkey", true}, {"l_linenumber", true}});
  const Table sb = SortBy(b, {{"l_orderkey", true}, {"l_linenumber", true}});
  ExpectTablesNear(sa, sb, 1e-9);
}

/// Every logical TPC-H formulation must match the hand-built physical
/// plan's result exactly, optimized or not.
class LogicalTpchTest : public ::testing::TestWithParam<int> {};

TEST_P(LogicalTpchTest, MatchesHandBuiltPhysicalPlan) {
  PlanExecutor executor;
  const Table expected =
      executor.Execute(BuildTpchPlan(GetParam(), TestCatalog(), PlanConfig{4}));
  const Table optimized =
      RunLogical(LogicalTpch(GetParam()), 4, /*optimize=*/true);
  ExpectTablesNear(expected, optimized, 1e-9);
}

TEST_P(LogicalTpchTest, OptimizerPreservesResults) {
  const Table raw = RunLogical(LogicalTpch(GetParam()), 3, /*optimize=*/false);
  const Table optimized =
      RunLogical(LogicalTpch(GetParam()), 3, /*optimize=*/true);
  ExpectTablesNear(raw, optimized, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Queries, LogicalTpchTest,
                         ::testing::ValuesIn(LogicalTpchQueryIds()));

TEST(LoweringTest, JoinKeyTypeMismatchRejected) {
  auto bad = LJoin(LScan("lineitem"), LScan("nation"), {"l_comment"},
                   {"n_nationkey"});
  EXPECT_FALSE(LowerToStagePlan(bad, Resolver()).ok());
}

}  // namespace
}  // namespace cackle::exec
