// Coverage for the vectorized executor kernels: dictionary-encoded string
// columns (encode/decode round-trips, dictionary propagation through
// gathers), the packed-key flat hash table (growth, fallback parity),
// exact double key semantics, and selection-vector filtering.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "exec/exec_metrics.h"
#include "exec/expr.h"
#include "exec/flat_hash.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace cackle::exec {
namespace {

Table IntKeyed(const std::vector<int64_t>& keys, const char* key_name = "k",
               const char* val_name = "v") {
  Table t({{key_name, DataType::kInt64}, {val_name, DataType::kInt64}});
  for (size_t i = 0; i < keys.size(); ++i) {
    t.column(0).AppendInt(keys[i]);
    t.column(1).AppendInt(static_cast<int64_t>(i));
  }
  t.FinishBulkAppend();
  return t;
}

// --- double keys (regression: ExtractKey used to hash doubles, so distinct
// --- doubles could collide into one join/group key) -------------------------

TEST(DoubleKeyTest, AdversarialDoublesStayDistinct) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double next1 = std::nextafter(1.0, 2.0);
  const std::vector<double> values = {0.0,  -0.0, 1.0,   next1,
                                      tiny, -tiny, 1e308, -1e308};
  Table t({{"d", DataType::kFloat64}});
  for (double v : values) t.column(0).AppendDouble(v);
  t.FinishBulkAppend();
  const Table agg =
      HashAggregate(t, {"d"}, {{AggOp::kCount, nullptr, "cnt"}});
  // 0.0 and -0.0 compare equal and must merge; everything else is distinct
  // (1.0 vs nextafter(1.0), +-denorm_min, the huge magnitudes).
  ASSERT_EQ(agg.num_rows(), 7);
  std::map<double, int64_t> counts;
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    counts[agg.column("d").doubles()[static_cast<size_t>(r)]] =
        agg.column("cnt").ints()[static_cast<size_t>(r)];
  }
  EXPECT_EQ(counts.at(0.0), 2);
  EXPECT_EQ(counts.at(1.0), 1);
  EXPECT_EQ(counts.at(next1), 1);
}

TEST(DoubleKeyTest, JoinMatchesExactBits) {
  Table left({{"d", DataType::kFloat64}});
  Table right({{"rd", DataType::kFloat64}, {"tag", DataType::kInt64}});
  const double next1 = std::nextafter(1.0, 2.0);
  left.column(0).AppendDouble(1.0);
  left.column(0).AppendDouble(next1);
  left.column(0).AppendDouble(-0.0);
  left.FinishBulkAppend();
  right.column(0).AppendDouble(1.0);
  right.column(1).AppendInt(10);
  right.column(0).AppendDouble(0.0);
  right.column(1).AppendInt(20);
  right.FinishBulkAppend();
  const Table j = HashJoin(left, {"d"}, right, {"rd"});
  // 1.0 matches 1.0; nextafter(1.0) matches nothing; -0.0 matches 0.0.
  ASSERT_EQ(j.num_rows(), 2);
  std::vector<int64_t> tags = j.column("tag").ints();
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(tags, (std::vector<int64_t>{10, 20}));
}

// --- dictionary sidecar -----------------------------------------------------

TEST(DictionaryTest, EncodeRoundTrip) {
  Table t({{"s", DataType::kString}});
  const std::vector<std::string> values = {"b", "a", "b", "c", "a", "b"};
  for (const std::string& v : values) t.column(0).AppendString(v);
  t.FinishBulkAppend();
  ASSERT_TRUE(t.column(0).DictEncode());
  const Column& col = t.column(0);
  ASSERT_TRUE(col.has_dict());
  EXPECT_EQ(col.dict().size(), 3);  // first-occurrence order: b, a, c
  EXPECT_EQ(col.dict().value(0), "b");
  EXPECT_EQ(col.dict().value(1), "a");
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col.dict().value(col.codes()[i]), values[i]);
    EXPECT_EQ(col.str(static_cast<int64_t>(i)), values[i]);
  }
}

TEST(DictionaryTest, HighCardinalityAbandoned) {
  Table t({{"s", DataType::kString}});
  for (int i = 0; i < 200; ++i) {
    t.column(0).AppendString("unique_" + std::to_string(i));
  }
  t.FinishBulkAppend();
  EXPECT_FALSE(t.column(0).DictEncode());
  EXPECT_FALSE(t.column(0).has_dict());
}

TEST(DictionaryTest, AppendStringDecodesToPlain) {
  Table t({{"s", DataType::kString}});
  t.column(0).AppendString("x");
  t.column(0).AppendString("x");
  t.FinishBulkAppend();
  ASSERT_TRUE(t.column(0).DictEncode());
  t.column(0).AppendString("y");  // "y" is not in the dictionary
  t.FinishBulkAppend();
  EXPECT_FALSE(t.column(0).has_dict());
  EXPECT_EQ(t.column(0).str(0), "x");
  EXPECT_EQ(t.column(0).str(1), "x");
  EXPECT_EQ(t.column(0).str(2), "y");
}

TEST(DictionaryTest, GatherAndFilterKeepDict) {
  Table t({{"s", DataType::kString}, {"v", DataType::kInt64}});
  for (int i = 0; i < 10; ++i) {
    t.column(0).AppendString(i % 2 == 0 ? "even" : "odd");
    t.column(1).AppendInt(i);
  }
  t.FinishBulkAppend();
  t.DictEncodeStringColumns();
  ASSERT_TRUE(t.column(0).has_dict());

  const Table g = t.GatherRows({1, 3, 5});
  ASSERT_TRUE(g.column(0).has_dict());
  EXPECT_EQ(g.column(0).dict_ptr(), t.column(0).dict_ptr());  // shared
  EXPECT_EQ(g.column(0).str(0), "odd");

  const Table f = Filter(t, Eq(Col("s"), Lit(std::string("even"))));
  EXPECT_EQ(f.num_rows(), 5);
  EXPECT_TRUE(f.column(0).has_dict());
}

// --- flat hash table --------------------------------------------------------

TEST(FlatMapTest, GrowthAcrossResizeBoundaries) {
  FlatMap64 map;  // starts at minimum capacity
  const int64_t n = 10'000;
  for (int64_t i = 0; i < n; ++i) {
    bool inserted = false;
    EXPECT_EQ(map.FindOrInsert(static_cast<uint64_t>(i * 977), i, &inserted),
              i);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.size(), n);
  EXPECT_GT(map.resizes(), 5);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(map.Find(static_cast<uint64_t>(i * 977)), i);
  }
  EXPECT_EQ(map.Find(123'456'789ULL), -1);
  bool inserted = true;
  EXPECT_EQ(map.FindOrInsert(977, -0, &inserted), 1);  // pre-existing
  EXPECT_FALSE(inserted);
}

TEST(FlatMapTest, AggregateAcrossManyGroups) {
  // Enough distinct groups to force several flat-table resizes mid-build.
  std::vector<int64_t> keys;
  keys.reserve(30'000);
  for (int64_t i = 0; i < 30'000; ++i) keys.push_back(i % 10'000);
  const Table t = IntKeyed(keys);
  const Table agg =
      HashAggregate(t, {"k"}, {{AggOp::kCount, nullptr, "cnt"}});
  ASSERT_EQ(agg.num_rows(), 10'000);
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    EXPECT_EQ(agg.column("cnt").ints()[static_cast<size_t>(r)], 3);
    // Group output order is first-seen order of the keys.
    EXPECT_EQ(agg.column("k").ints()[static_cast<size_t>(r)], r);
  }
}

// --- packed keys vs fallback ------------------------------------------------

TEST(PackedKeyTest, WideIntKeysForceFallback) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  // Two full-range int64 key columns need 128 bits: cannot pack.
  Table left({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table right({{"c", DataType::kInt64}, {"d", DataType::kInt64},
               {"tag", DataType::kInt64}});
  const std::vector<std::pair<int64_t, int64_t>> rows = {
      {lo, hi}, {hi, lo}, {0, 0}, {lo, lo}};
  for (const auto& [a, b] : rows) {
    left.column(0).AppendInt(a);
    left.column(1).AppendInt(b);
  }
  left.FinishBulkAppend();
  right.column(0).AppendInt(hi);
  right.column(1).AppendInt(lo);
  right.column(2).AppendInt(42);
  right.column(0).AppendInt(1);
  right.column(1).AppendInt(1);
  right.column(2).AppendInt(43);
  right.FinishBulkAppend();

  const int64_t fallbacks_before =
      ExecMetrics().key_fallback_activations.load();
  const Table j = HashJoin(left, {"a", "b"}, right, {"c", "d"});
  EXPECT_GT(ExecMetrics().key_fallback_activations.load(), fallbacks_before);
  ASSERT_EQ(j.num_rows(), 1);
  EXPECT_EQ(j.column("tag").ints()[0], 42);
  EXPECT_EQ(j.column("a").ints()[0], hi);
}

TEST(PackedKeyTest, PackedAndFallbackAgree) {
  // Same logical join once with dictionary-encoded string keys (packed) and
  // once with plain strings (fallback): identical results.
  auto build = [](bool encode) {
    Table left({{"k", DataType::kString}, {"lv", DataType::kInt64}});
    Table right({{"rk", DataType::kString}, {"rv", DataType::kInt64}});
    for (int i = 0; i < 60; ++i) {
      left.column(0).AppendString("key" + std::to_string(i % 5));
      left.column(1).AppendInt(i);
    }
    left.FinishBulkAppend();
    for (int i = 0; i < 9; ++i) {
      // Includes keys absent from the left and vice versa ("key7").
      right.column(0).AppendString("key" + std::to_string((i % 3) * 2 + 3));
      right.column(1).AppendInt(100 + i);
    }
    right.FinishBulkAppend();
    if (encode) {
      left.DictEncodeStringColumns();
      right.DictEncodeStringColumns();
    }
    return std::make_pair(std::move(left), std::move(right));
  };
  auto [pl, pr] = build(true);
  auto [fl, fr] = build(false);
  ASSERT_TRUE(pl.column(0).has_dict());
  ASSERT_TRUE(pr.column(0).has_dict());
  // Distinct dictionaries on the two sides: exercises the probe-side remap
  // (including the never-matches sentinel for left-only keys).
  EXPECT_NE(pl.column(0).dict_ptr(), pr.column(0).dict_ptr());
  for (const JoinType type :
       {JoinType::kInner, JoinType::kLeftOuter, JoinType::kLeftSemi,
        JoinType::kLeftAnti}) {
    const Table packed = HashJoin(pl, {"k"}, pr, {"rk"}, type);
    const Table fallback = HashJoin(fl, {"k"}, fr, {"rk"}, type);
    EXPECT_EQ(packed.ToString(10'000), fallback.ToString(10'000));
  }
}

TEST(PackedKeyTest, HeavyDuplicationPreservesBuildOrder) {
  // 3 left rows x 1000 duplicate build rows per key: chains must emit in
  // ascending build-row order, matching the row-at-a-time implementation.
  std::vector<int64_t> lkeys = {7, 8, 7};
  std::vector<int64_t> rkeys;
  for (int i = 0; i < 2000; ++i) rkeys.push_back(7 + (i % 2));
  const Table left = IntKeyed(lkeys, "k", "lv");
  const Table right = IntKeyed(rkeys, "rk", "rv");
  const Table j = HashJoin(left, {"k"}, right, {"rk"});
  ASSERT_EQ(j.num_rows(), 3000);
  // First block: left row 0 against ascending right rows 0,2,4,...
  EXPECT_EQ(j.column("rv").ints()[0], 0);
  EXPECT_EQ(j.column("rv").ints()[1], 2);
  EXPECT_EQ(j.column("rv").ints()[999], 1998);
  // Second block: left row 1 against right rows 1,3,5,...
  EXPECT_EQ(j.column("rv").ints()[1000], 1);
  const Table semi = HashJoin(left, {"k"}, right, {"rk"}, JoinType::kLeftSemi);
  EXPECT_EQ(semi.num_rows(), 3);
}

// --- aggregate edges --------------------------------------------------------

TEST(AggregateVectorizedTest, CountDistinctAndAvgEmptyInput) {
  Table empty({{"k", DataType::kInt64}, {"v", DataType::kInt64},
               {"s", DataType::kString}});
  empty.FinishBulkAppend();
  // Global aggregate over empty input: one row of zeros.
  const Table agg = HashAggregate(
      empty, {},
      {{AggOp::kCountDistinct, Col("v"), "dv"},
       {AggOp::kCountDistinct, Col("s"), "ds"},
       {AggOp::kAvg, Col("v"), "avg"}});
  ASSERT_EQ(agg.num_rows(), 1);
  EXPECT_EQ(agg.column("dv").ints()[0], 0);
  EXPECT_EQ(agg.column("ds").ints()[0], 0);
  EXPECT_DOUBLE_EQ(agg.column("avg").doubles()[0], 0.0);
  // Grouped aggregate over empty input: no rows.
  EXPECT_EQ(HashAggregate(empty, {"k"},
                          {{AggOp::kCountDistinct, Col("v"), "dv"}})
                .num_rows(),
            0);
}

TEST(AggregateVectorizedTest, CountDistinctAndAvgSingleRow) {
  Table t({{"k", DataType::kInt64}, {"v", DataType::kInt64},
           {"s", DataType::kString}});
  t.column(0).AppendInt(1);
  t.column(1).AppendInt(41);
  t.column(2).AppendString("only");
  t.FinishBulkAppend();
  const Table agg = HashAggregate(
      t, {"k"},
      {{AggOp::kCountDistinct, Col("v"), "dv"},
       {AggOp::kCountDistinct, Col("s"), "ds"},
       {AggOp::kAvg, Col("v"), "avg"},
       {AggOp::kMin, Col("v"), "mn"}});
  ASSERT_EQ(agg.num_rows(), 1);
  EXPECT_EQ(agg.column("dv").ints()[0], 1);
  EXPECT_EQ(agg.column("ds").ints()[0], 1);
  EXPECT_DOUBLE_EQ(agg.column("avg").doubles()[0], 41.0);
  EXPECT_EQ(agg.column("mn").ints()[0], 41);
}

// --- selection-vector filtering ---------------------------------------------

TEST(SelectionFilterTest, DictAwareStringPredicates) {
  Table t({{"s", DataType::kString}, {"v", DataType::kInt64}});
  const std::vector<std::string> values = {"apple", "banana", "apple",
                                           "cherry", "banana", "apple"};
  for (size_t i = 0; i < values.size(); ++i) {
    t.column(0).AppendString(values[i]);
    t.column(1).AppendInt(static_cast<int64_t>(i));
  }
  t.FinishBulkAppend();
  t.DictEncodeStringColumns();
  ASSERT_TRUE(t.column(0).has_dict());

  const int64_t dict_evals_before = ExecMetrics().dict_predicate_evals.load();
  EXPECT_EQ(Filter(t, Eq(Col("s"), Lit(std::string("apple")))).num_rows(), 3);
  EXPECT_EQ(Filter(t, Ne(Col("s"), Lit(std::string("apple")))).num_rows(), 3);
  EXPECT_EQ(Filter(t, InString(Col("s"), {"banana", "cherry"})).num_rows(),
            3);
  EXPECT_EQ(Filter(t, StrContains(Col("s"), "an")).num_rows(), 2);
  EXPECT_EQ(Filter(t, StrPrefix(Col("s"), "ch")).num_rows(), 1);
  EXPECT_GT(ExecMetrics().dict_predicate_evals.load(), dict_evals_before);

  // Conjunctions refine the selection; disjunctions/negations take the
  // mask path — both must agree with per-row evaluation.
  const Table mixed = Filter(
      t, And(Or(Eq(Col("s"), Lit(std::string("apple"))),
                Eq(Col("s"), Lit(std::string("cherry")))),
             Not(Lt(Col("v"), Lit(int64_t{2})))));
  ASSERT_EQ(mixed.num_rows(), 3);
  EXPECT_EQ(mixed.column("v").ints(), (std::vector<int64_t>{2, 3, 5}));
}

TEST(ExecMetricsTest, CountersPublishUnderExecPrefix) {
  ExecMetrics().Reset();
  // One packed join (flat build), one dictionary encode, one filter.
  const Table left = IntKeyed({1, 2, 3}, "k", "lv");
  const Table right = IntKeyed({2, 3, 4}, "rk", "rv");
  HashJoin(left, {"k"}, right, {"rk"});
  Table t({{"s", DataType::kString}});
  t.column(0).AppendString("a");
  t.column(0).AppendString("a");
  t.FinishBulkAppend();
  t.DictEncodeStringColumns();
  Filter(left, Gt(Col("k"), Lit(int64_t{1})));

  MetricsRegistry registry;
  PublishExecMetrics(registry);
  EXPECT_GE(registry.CounterValue("exec.flat_table.builds"), 1);
  EXPECT_GE(registry.CounterValue("exec.keys.packed"), 1);
  EXPECT_GE(registry.CounterValue("exec.dict.columns_encoded"), 1);
  EXPECT_GE(registry.CounterValue("exec.dict.total_entries"), 1);
  EXPECT_GE(registry.CounterValue("exec.filter.selection_vectors"), 1);
  EXPECT_GE(registry.CounterValue("exec.gather.rows"), 1);
  EXPECT_EQ(registry.CounterValue("exec.keys.fallback"), 0);
}

TEST(SelectionFilterTest, NumericRefinement) {
  Table t({{"a", DataType::kInt64}, {"b", DataType::kFloat64}});
  for (int i = 0; i < 100; ++i) {
    t.column(0).AppendInt(i);
    t.column(1).AppendDouble(i * 0.5);
  }
  t.FinishBulkAppend();
  const Table f = Filter(t, And(Ge(Col("a"), Lit(int64_t{10})),
                                Lt(Col("b"), Lit(10.0))));
  ASSERT_EQ(f.num_rows(), 10);  // a in [10, 19]
  EXPECT_EQ(f.column("a").ints()[0], 10);
  EXPECT_EQ(f.column("a").ints()[9], 19);
}

}  // namespace
}  // namespace cackle::exec
