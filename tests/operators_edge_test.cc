// Edge-case and property coverage for the executor's operators beyond the
// happy paths in exec_test.cc: string and composite join keys, empty
// inputs, join multiplicity, skewed and tiny join shapes against a
// nested-loop reference, sort totality, and partition determinism.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace cackle::exec {
namespace {

Table KeyValue(std::vector<std::pair<std::string, int64_t>> rows,
               const char* key_name = "k", const char* val_name = "v") {
  Table t({{key_name, DataType::kString}, {val_name, DataType::kInt64}});
  for (auto& [k, v] : rows) {
    t.column(0).AppendString(k);
    t.column(1).AppendInt(v);
  }
  t.FinishBulkAppend();
  return t;
}

TEST(HashJoinEdgeTest, StringKeys) {
  const Table left = KeyValue({{"a", 1}, {"b", 2}, {"c", 3}}, "lk", "lv");
  const Table right = KeyValue({{"b", 20}, {"c", 30}, {"d", 40}}, "rk", "rv");
  const Table j = HashJoin(left, {"lk"}, right, {"rk"});
  ASSERT_EQ(j.num_rows(), 2);
  for (int64_t r = 0; r < j.num_rows(); ++r) {
    EXPECT_EQ(j.column("lk").str(r), j.column("rk").str(r));
  }
}

TEST(HashJoinEdgeTest, CompositeMixedTypeKeys) {
  Table left({{"a", DataType::kInt64}, {"b", DataType::kString},
              {"x", DataType::kInt64}});
  Table right({{"c", DataType::kInt64}, {"d", DataType::kString},
               {"y", DataType::kInt64}});
  for (int i = 0; i < 20; ++i) {
    left.column(0).AppendInt(i % 3);
    left.column(1).AppendString(i % 2 == 0 ? "even" : "odd");
    left.column(2).AppendInt(i);
  }
  left.FinishBulkAppend();
  right.column(0).AppendInt(1);
  right.column(1).AppendString("odd");
  right.column(2).AppendInt(100);
  right.FinishBulkAppend();
  const Table j = HashJoin(left, {"a", "b"}, right, {"c", "d"});
  // Left rows with a==1 and "odd": i in {1,7,13,19} -> a=1 iff i%3==1 and
  // i odd: i = 1, 7, 13, 19.
  EXPECT_EQ(j.num_rows(), 4);
}

TEST(HashJoinEdgeTest, DuplicateKeysMultiply) {
  const Table left = KeyValue({{"a", 1}, {"a", 2}}, "lk", "lv");
  const Table right = KeyValue({{"a", 10}, {"a", 20}, {"a", 30}}, "rk", "rv");
  EXPECT_EQ(HashJoin(left, {"lk"}, right, {"rk"}).num_rows(), 6);
  EXPECT_EQ(HashJoin(left, {"lk"}, right, {"rk"}, JoinType::kLeftSemi)
                .num_rows(),
            2);
}

TEST(HashJoinEdgeTest, EmptySides) {
  const Table left = KeyValue({{"a", 1}}, "lk", "lv");
  const Table empty = KeyValue({}, "rk", "rv");
  EXPECT_EQ(HashJoin(left, {"lk"}, empty, {"rk"}).num_rows(), 0);
  EXPECT_EQ(HashJoin(left, {"lk"}, empty, {"rk"}, JoinType::kLeftAnti)
                .num_rows(),
            1);
  EXPECT_EQ(HashJoin(empty, {"rk"}, left, {"lk"}).num_rows(), 0);
  const Table outer =
      HashJoin(left, {"lk"}, empty, {"rk"}, JoinType::kLeftOuter);
  ASSERT_EQ(outer.num_rows(), 1);
  EXPECT_EQ(outer.column("rv").ints()[0], 0);  // null padding
  EXPECT_EQ(outer.column("rk").str(0), "");
}

TEST(HashJoinEdgeTest, OuterJoinPadsAllTypes) {
  Table left({{"k", DataType::kInt64}});
  left.column(0).AppendInt(99);
  left.FinishBulkAppend();
  Table right({{"rk", DataType::kInt64},
               {"d", DataType::kFloat64},
               {"s", DataType::kString}});
  right.FinishBulkAppend();
  const Table j = HashJoin(left, {"k"}, right, {"rk"}, JoinType::kLeftOuter);
  ASSERT_EQ(j.num_rows(), 1);
  EXPECT_DOUBLE_EQ(j.column("d").doubles()[0], 0.0);
  EXPECT_EQ(j.column("s").str(0), "");
}

// ------------------------------------------ hash join vs nested-loop join

struct JoinCase {
  const char* label;
  std::vector<int64_t> left_keys;
  std::vector<int64_t> right_keys;
};

std::vector<JoinCase> JoinCases() {
  std::vector<JoinCase> cases;
  {
    // Dense many-to-many with misses on both sides.
    JoinCase c;
    c.label = "dense";
    for (int64_t i = 0; i < 4000; ++i) c.left_keys.push_back(i % 257);
    for (int64_t i = 0; i < 900; ++i) c.right_keys.push_back((i * 3) % 300);
    cases.push_back(std::move(c));
  }
  {
    // Full skew: every build (right) key identical, so one group's chain
    // holds every build row.
    JoinCase c;
    c.label = "single_key_skew";
    for (int64_t i = 0; i < 1000; ++i) {
      c.left_keys.push_back(i % 7 == 0 ? 42 : i);
    }
    c.right_keys.assign(64, 42);
    cases.push_back(std::move(c));
  }
  {
    // Tiny build side: almost every probe misses.
    JoinCase c;
    c.label = "tiny_build";
    for (int64_t i = 0; i < 500; ++i) c.left_keys.push_back(i);
    c.right_keys = {3, 141, 59, 265};
    cases.push_back(std::move(c));
  }
  {
    // Empty build side entirely: every probe misses.
    JoinCase c;
    c.label = "empty_build";
    for (int64_t i = 0; i < 100; ++i) c.left_keys.push_back(i);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// A (key, payload) table whose payload is ten times the row index.
Table KeyPayload(const std::string& key_name, const std::vector<int64_t>& keys,
                 const std::string& payload_name) {
  Table t({{key_name, DataType::kInt64}, {payload_name, DataType::kInt64}});
  for (size_t i = 0; i < keys.size(); ++i) {
    t.column(0).AppendInt(keys[i]);
    t.column(1).AppendInt(static_cast<int64_t>(i) * 10);
  }
  t.FinishBulkAppend();
  return t;
}

/// The rows a nested-loop join emits: left rows in order, each followed by
/// its matching build rows in ascending order; an unmatched left-outer row
/// pads the right columns with 0.
std::vector<std::vector<int64_t>> NestedLoopJoin(const JoinCase& jc,
                                                 JoinType type) {
  std::vector<std::vector<int64_t>> rows;
  for (size_t l = 0; l < jc.left_keys.size(); ++l) {
    const std::vector<int64_t> left_row = {jc.left_keys[l],
                                           static_cast<int64_t>(l) * 10};
    std::vector<int64_t> matches;
    for (size_t r = 0; r < jc.right_keys.size(); ++r) {
      if (jc.right_keys[r] == jc.left_keys[l]) {
        matches.push_back(static_cast<int64_t>(r));
      }
    }
    switch (type) {
      case JoinType::kInner:
      case JoinType::kLeftOuter:
        for (const int64_t r : matches) {
          rows.push_back(left_row);
          rows.back().push_back(jc.right_keys[static_cast<size_t>(r)]);
          rows.back().push_back(r * 10);
        }
        if (matches.empty() && type == JoinType::kLeftOuter) {
          rows.push_back(left_row);
          rows.back().push_back(0);
          rows.back().push_back(0);
        }
        break;
      case JoinType::kLeftSemi:
        if (!matches.empty()) rows.push_back(left_row);
        break;
      case JoinType::kLeftAnti:
        if (matches.empty()) rows.push_back(left_row);
        break;
    }
  }
  return rows;
}

std::vector<std::vector<int64_t>> IntRows(const Table& t) {
  std::vector<std::vector<int64_t>> rows(static_cast<size_t>(t.num_rows()));
  for (int c = 0; c < t.num_columns(); ++c) {
    const std::vector<int64_t>& xs = t.column(c).ints();
    for (size_t r = 0; r < rows.size(); ++r) rows[r].push_back(xs[r]);
  }
  return rows;
}

class HashJoinShapeTest : public ::testing::TestWithParam<JoinType> {};

TEST_P(HashJoinShapeTest, MatchesNestedLoopJoinRowForRow) {
  const JoinType type = GetParam();
  for (const JoinCase& jc : JoinCases()) {
    SCOPED_TRACE(jc.label);
    const Table left = KeyPayload("k", jc.left_keys, "lpay");
    const Table right = KeyPayload("rk", jc.right_keys, "rpay");
    const Table joined = HashJoin(left, {"k"}, right, {"rk"}, type);
    const bool emit_right =
        type == JoinType::kInner || type == JoinType::kLeftOuter;
    ASSERT_EQ(joined.num_columns(), emit_right ? 4 : 2);
    EXPECT_EQ(IntRows(joined), NestedLoopJoin(jc, type));
  }
}

INSTANTIATE_TEST_SUITE_P(AllJoinTypes, HashJoinShapeTest,
                         ::testing::Values(JoinType::kInner,
                                           JoinType::kLeftOuter,
                                           JoinType::kLeftSemi,
                                           JoinType::kLeftAnti));

TEST(AggregateEdgeTest, StringGroupKeysAndEmptyGroups) {
  const Table t = KeyValue({{"x", 1}, {"y", 2}, {"x", 3}});
  const Table agg =
      HashAggregate(t, {"k"}, {{AggOp::kSum, Col("v"), "sum"}});
  ASSERT_EQ(agg.num_rows(), 2);
  // Summing an int64 column keeps the integer type.
  ASSERT_EQ(agg.column_def(1).type, DataType::kInt64);
  std::map<std::string, int64_t> sums;
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    sums[std::string(agg.column("k").str(r))] =
        agg.column("sum").ints()[static_cast<size_t>(r)];
  }
  EXPECT_EQ(sums.at("x"), 4);
  EXPECT_EQ(sums.at("y"), 2);
  // Grouped aggregate over empty input: no rows (vs global's one row).
  const Table empty = KeyValue({});
  EXPECT_EQ(HashAggregate(empty, {"k"}, {{AggOp::kSum, Col("v"), "s"}})
                .num_rows(),
            0);
}

TEST(AggregateEdgeTest, MinMaxOfIntegerColumnKeepsIntType) {
  const Table t = KeyValue({{"g", 5}, {"g", -3}, {"g", 9}});
  const Table agg = HashAggregate(
      t, {"k"},
      {{AggOp::kMin, Col("v"), "mn"}, {AggOp::kMax, Col("v"), "mx"}});
  EXPECT_EQ(agg.column_def(1).type, DataType::kInt64);
  EXPECT_EQ(agg.column("mn").ints()[0], -3);
  EXPECT_EQ(agg.column("mx").ints()[0], 9);
}

TEST(SortEdgeTest, StableOnTies) {
  Table t({{"key", DataType::kInt64}, {"order", DataType::kInt64}});
  for (int64_t i = 0; i < 10; ++i) {
    t.column(0).AppendInt(i % 2);
    t.column(1).AppendInt(i);
  }
  t.FinishBulkAppend();
  const Table sorted = SortBy(t, {{"key", true}});
  // Within each key, original order preserved (stable sort).
  int64_t prev = -1;
  for (int64_t r = 0; r < sorted.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (sorted.column("key").ints()[i] == 0) {
      EXPECT_GT(sorted.column("order").ints()[i], prev);
      prev = sorted.column("order").ints()[i];
    }
  }
}

TEST(SortEdgeTest, AllTypesAndEmpty) {
  Table t({{"i", DataType::kInt64},
           {"d", DataType::kFloat64},
           {"s", DataType::kString}});
  t.FinishBulkAppend();
  EXPECT_EQ(SortBy(t, {{"i", true}, {"d", false}, {"s", true}}).num_rows(),
            0);
  t.column(0).AppendInt(2);
  t.column(1).AppendDouble(1.5);
  t.column(2).AppendString("b");
  t.column(0).AppendInt(2);
  t.column(1).AppendDouble(1.5);
  t.column(2).AppendString("a");
  t.FinishBulkAppend();
  const Table sorted = SortBy(t, {{"i", true}, {"d", true}, {"s", true}});
  EXPECT_EQ(sorted.column("s").str(0), "a");
}

TEST(PartitionEdgeTest, SinglePartitionIsIdentityOrder) {
  const Table t = KeyValue({{"a", 1}, {"b", 2}, {"c", 3}});
  const auto parts = PartitionByHash(t, {"k"}, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].num_rows(), 3);
  EXPECT_EQ(parts[0].column("v").ints(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(PartitionEdgeTest, DeterministicAcrossCalls) {
  Rng rng(42);
  Table t({{"k", DataType::kInt64}});
  for (int i = 0; i < 500; ++i) {
    t.column(0).AppendInt(rng.NextInt(0, 1000));
  }
  t.FinishBulkAppend();
  const auto a = PartitionByHash(t, {"k"}, 7);
  const auto b = PartitionByHash(t, {"k"}, 7);
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].num_rows(), b[p].num_rows());
  }
}

TEST(ExprEdgeTest, DivisionByZeroYieldsZero) {
  Table t({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}});
  t.column(0).AppendDouble(10.0);
  t.column(1).AppendDouble(0.0);
  t.FinishBulkAppend();
  const Column c = Div(Col("x"), Col("y"))->Eval(t);
  EXPECT_DOUBLE_EQ(c.doubles()[0], 0.0);  // documented sentinel, not NaN
}

TEST(ExprEdgeTest, AllOfSingleElement) {
  Table t({{"x", DataType::kInt64}});
  t.column(0).AppendInt(5);
  t.FinishBulkAppend();
  const Column c = AllOf({Gt(Col("x"), Lit(int64_t{3}))})->Eval(t);
  EXPECT_EQ(c.ints()[0], 1);
}

TEST(SelectRenameTest, ReorderAndRename) {
  const Table t = KeyValue({{"a", 1}});
  const Table sel = SelectColumns(t, {"v", "k"});
  EXPECT_EQ(sel.column_def(0).name, "v");
  const Table ren = RenameColumns(sel, {"value", "key"});
  EXPECT_EQ(ren.column_def(1).name, "key");
  EXPECT_EQ(ren.column("key").str(0), "a");
}

}  // namespace
}  // namespace cackle::exec
