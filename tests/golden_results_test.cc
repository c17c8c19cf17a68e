// Golden-result regression suite: every TPC-H query plan executed at
// SF 0.01 must reproduce the committed row counts and per-column checksums
// exactly. The checksums are order-independent aggregates (wrapping sums of
// integer values and FNV-1a string hashes; floating-point column sums
// compared with a relative epsilon), so they pin result *content* without
// being brittle about row order.
//
// To regenerate after an intentional semantics change:
//   CACKLE_REGEN_GOLDEN=1 ./golden_results_test
//       --gtest_filter=TpchGoldenResultsTest.AllQueriesMatchCommittedChecksums
// (one command line; split here only for width)
// and paste the printed block over the GoldenResults() literal below.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <variant>
#include <vector>

#include "exec/datagen.h"
#include "exec/exec_metrics.h"
#include "exec/plan.h"
#include "exec/tpch_queries.h"

#include "cloud/cost_model.h"
#include "engine/engine.h"
#include "engine/scenario.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace cackle::exec {
namespace {

const Catalog& TestCatalog() {
  static const Catalog* cat = new Catalog(GenerateTpch(0.01));
  return *cat;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct ColumnChecksum {
  std::string name;
  DataType type = DataType::kInt64;
  /// kInt64: wrapping sum of values; kString: wrapping sum of per-value
  /// FNV-1a hashes; kFloat64: 0 (the sum field carries the content).
  uint64_t hash = 0;
  /// kFloat64 only: sum of values in result-row order (single-threaded
  /// execution makes the summation order deterministic).
  double sum = 0.0;
};

struct QueryChecksum {
  int query_id = 0;
  int64_t rows = 0;
  std::vector<ColumnChecksum> columns;
};

QueryChecksum Checksum(int query_id, const Table& table) {
  QueryChecksum out;
  out.query_id = query_id;
  out.rows = table.num_rows();
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnChecksum col;
    col.name = table.column_def(c).name;
    col.type = table.column_def(c).type;
    switch (col.type) {
      case DataType::kInt64:
        for (const int64_t v : table.column(c).ints()) {
          col.hash += static_cast<uint64_t>(v);
        }
        break;
      case DataType::kString:
        for (const std::string& v : table.column(c).strings()) {
          col.hash += Fnv1a(v);
        }
        break;
      case DataType::kFloat64:
        for (const double v : table.column(c).doubles()) col.sum += v;
        break;
    }
    out.columns.push_back(std::move(col));
  }
  return out;
}

QueryChecksum Execute(int query_id) {
  PlanExecutor executor;  // single-threaded: deterministic double sums
  const Table result =
      executor.Execute(BuildTpchPlan(query_id, TestCatalog(), PlanConfig{3}));
  return Checksum(query_id, result);
}

const char* TypeLiteral(DataType type) {
  switch (type) {
    case DataType::kInt64: return "DataType::kInt64";
    case DataType::kFloat64: return "DataType::kFloat64";
    case DataType::kString: return "DataType::kString";
  }
  return "?";
}

void PrintRegenBlock(const std::vector<QueryChecksum>& all) {
  std::printf("// --- begin generated golden block ---\n");
  for (const QueryChecksum& q : all) {
    std::printf("      {%d, %lld, {\n", q.query_id,
                static_cast<long long>(q.rows));
    for (const ColumnChecksum& c : q.columns) {
      std::printf("          {\"%s\", %s, 0x%016llxULL, %.17g},\n",
                  c.name.c_str(), TypeLiteral(c.type),
                  static_cast<unsigned long long>(c.hash), c.sum);
    }
    std::printf("      }},\n");
  }
  std::printf("// --- end generated golden block ---\n");
}

/// Committed expected values for all TPC-H query plans at SF 0.01
/// (generated with the regen recipe in the file header).
const std::vector<QueryChecksum>& GoldenResults() {
  static const std::vector<QueryChecksum>* golden =
      new std::vector<QueryChecksum>{
      {1, 4, {
          {"l_returnflag", DataType::kString, 0x12f5d051cf35c977ULL, 0},
          {"l_linestatus", DataType::kString, 0x12f5be51cf35aae1ULL, 0},
          {"sum_qty", DataType::kFloat64, 0x0000000000000000ULL, 1547233},
          {"sum_base_price", DataType::kFloat64, 0x0000000000000000ULL, 2169760764.6699967},
          {"sum_disc_price", DataType::kFloat64, 0x0000000000000000ULL, 2061376322.6873951},
          {"sum_charge", DataType::kFloat64, 0x0000000000000000ULL, 2143694632.9391427},
          {"avg_qty", DataType::kFloat64, 0x0000000000000000ULL, 102.19503629154889},
          {"avg_price", DataType::kFloat64, 0x0000000000000000ULL, 143728.50828463983},
          {"avg_disc", DataType::kFloat64, 0x0000000000000000ULL, 0.19840350300928114},
          {"count_order", DataType::kInt64, 0x000000000000ec82ULL, 0},
      }},
      {2, 3, {
          {"s_acctbal", DataType::kFloat64, 0x0000000000000000ULL, 7090.4514598780988},
          {"s_name", DataType::kString, 0x0bd6ffb1374dbcfcULL, 0},
          {"n_name", DataType::kString, 0x3596f24be4445408ULL, 0},
          {"p_partkey", DataType::kInt64, 0x0000000000000ce0ULL, 0},
          {"p_mfgr", DataType::kString, 0xf87b7aa6d23757c4ULL, 0},
          {"s_address", DataType::kString, 0x74808f0943ef65d6ULL, 0},
          {"s_phone", DataType::kString, 0x130efd495aa2e39dULL, 0},
          {"s_comment", DataType::kString, 0xa7ed896431c3b7adULL, 0},
      }},
      {3, 10, {
          {"l_orderkey", DataType::kInt64, 0x00000000000550a9ULL, 0},
          {"o_orderdate", DataType::kInt64, 0x000000000001669bULL, 0},
          {"o_shippriority", DataType::kInt64, 0x0000000000000000ULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 2411950.3761},
      }},
      {4, 5, {
          {"o_orderpriority", DataType::kString, 0xc11b6ce76d31091eULL, 0},
          {"order_count", DataType::kInt64, 0x0000000000000242ULL, 0},
      }},
      {5, 5, {
          {"n_name", DataType::kString, 0x22ce746189b16159ULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 2532093.6125000003},
      }},
      {6, 1, {
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 1150346.9633000004},
      }},
      {7, 4, {
          {"supp_nation", DataType::kString, 0x9def707a27e983c8ULL, 0},
          {"cust_nation", DataType::kString, 0x9def707a27e983c8ULL, 0},
          {"l_year", DataType::kInt64, 0x0000000000001f2eULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 2849187.3594},
      }},
      {8, 2, {
          {"o_year", DataType::kInt64, 0x0000000000000f97ULL, 0},
          {"mkt_share", DataType::kFloat64, 0x0000000000000000ULL, 0},
      }},
      {9, 172, {
          {"n_name", DataType::kString, 0x9c16b76466e7f5b2ULL, 0},
          {"o_year", DataType::kInt64, 0x0000000000053c5fULL, 0},
          {"sum_profit", DataType::kFloat64, 0x0000000000000000ULL, 72374737.454575524},
      }},
      {10, 20, {
          {"c_custkey", DataType::kInt64, 0x0000000000003f0bULL, 0},
          {"c_name", DataType::kString, 0x09ee95154aac9e07ULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 6280814.7340999991},
          {"c_acctbal", DataType::kFloat64, 0x0000000000000000ULL, 93879.766575821428},
          {"n_name", DataType::kString, 0x32c38ec55586b836ULL, 0},
          {"c_address", DataType::kString, 0x73ccbb86c3dbe1a6ULL, 0},
          {"c_phone", DataType::kString, 0x4ab1647fc4b4d113ULL, 0},
          {"c_comment", DataType::kString, 0xb520c9230a9f8493ULL, 0},
      }},
      {11, 299, {
          {"ps_partkey", DataType::kInt64, 0x00000000000494ffULL, 0},
          {"value", DataType::kFloat64, 0x0000000000000000ULL, 728224318.6999017},
      }},
      {12, 2, {
          {"l_shipmode", DataType::kString, 0xad73f13469542a85ULL, 0},
          {"high_line_count", DataType::kInt64, 0x000000000000006eULL, 0},
          {"low_line_count", DataType::kInt64, 0x00000000000000c3ULL, 0},
      }},
      {13, 24, {
          {"c_count", DataType::kInt64, 0x0000000000000170ULL, 0},
          {"custdist", DataType::kInt64, 0x00000000000005dcULL, 0},
      }},
      {14, 1, {
          {"promo_revenue", DataType::kFloat64, 0x0000000000000000ULL, 18.265332604323188},
      }},
      {15, 1, {
          {"s_suppkey", DataType::kInt64, 0x0000000000000008ULL, 0},
          {"s_name", DataType::kString, 0x03f1799067c41574ULL, 0},
          {"s_address", DataType::kString, 0x593b0af10ba6a2a5ULL, 0},
          {"s_phone", DataType::kString, 0xd2e0aa2eae2e5070ULL, 0},
          {"total_revenue", DataType::kFloat64, 0x0000000000000000ULL, 1365458.8482000001},
      }},
      {16, 298, {
          {"p_brand", DataType::kString, 0x05ca2e640b61544bULL, 0},
          {"p_type", DataType::kString, 0x32ebc472bae23aadULL, 0},
          {"p_size", DataType::kInt64, 0x0000000000001b52ULL, 0},
          {"supplier_cnt", DataType::kInt64, 0x00000000000004aeULL, 0},
      }},
      {17, 1, {
          {"avg_yearly", DataType::kFloat64, 0x0000000000000000ULL, 7303.0628571428579},
      }},
      {18, 100, {
          {"c_name", DataType::kString, 0x344170582ea8e89cULL, 0},
          {"c_custkey", DataType::kInt64, 0x0000000000011b13ULL, 0},
          {"o_orderkey", DataType::kInt64, 0x000000000030f25eULL, 0},
          {"o_orderdate", DataType::kInt64, 0x00000000000df37dULL, 0},
          {"o_totalprice", DataType::kFloat64, 0x0000000000000000ULL, 37523658.134704977},
          {"sum_qty", DataType::kFloat64, 0x0000000000000000ULL, 24741},
      }},
      {19, 1, {
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 12197.636},
      }},
      {20, 4, {
          {"s_name", DataType::kString, 0x0facf6419efa2c1fULL, 0},
          {"s_address", DataType::kString, 0x385e4e7360a7b4d7ULL, 0},
      }},
      {21, 4, {
          {"s_name", DataType::kString, 0x0fcf75419f17ea52ULL, 0},
          {"numwait", DataType::kInt64, 0x0000000000000025ULL, 0},
      }},
      {22, 7, {
          {"cntrycode", DataType::kString, 0x3d292e0568a19c4dULL, 0},
          {"numcust", DataType::kInt64, 0x0000000000000042ULL, 0},
          {"totacctbal", DataType::kFloat64, 0x0000000000000000ULL, 479454.4946444332},
      }},
      {23, 1, {
          {"repeat_revenue", DataType::kFloat64, 0x0000000000000000ULL, 135710596.393933},
          {"repeat_orders", DataType::kInt64, 0x00000000000003b4ULL, 0},
      }},
      {24, 25, {
          {"p_brand", DataType::kString, 0x5c5be330c4c7e827ULL, 0},
          {"rev_a", DataType::kFloat64, 0x0000000000000000ULL, 51642358.263599992},
          {"rev_b", DataType::kFloat64, 0x0000000000000000ULL, 58968955.36339999},
          {"rev_c", DataType::kFloat64, 0x0000000000000000ULL, 56272188.864599995},
          {"avg_window_revenue", DataType::kFloat64, 0x0000000000000000ULL, 55627834.163866661},
      }},
      {25, 175, {
          {"n_name", DataType::kString, 0x53dabb6c8bd26749ULL, 0},
          {"o_year", DataType::kInt64, 0x00000000000553c5ULL, 0},
          {"total_margin", DataType::kFloat64, 0x0000000000000000ULL, 1291235912.4802487},
          {"line_count", DataType::kInt64, 0x000000000000ec82ULL, 0},
      }},
      };
  return *golden;
}

TEST(TpchGoldenResultsTest, AllQueriesMatchCommittedChecksums) {
  if (std::getenv("CACKLE_REGEN_GOLDEN") != nullptr) {
    std::vector<QueryChecksum> all;
    for (const int id : AllTpchQueryIds()) all.push_back(Execute(id));
    PrintRegenBlock(all);
    GTEST_SKIP() << "regeneration mode: golden block printed";
  }
  const std::vector<QueryChecksum>& golden = GoldenResults();
  ASSERT_EQ(golden.size(), AllTpchQueryIds().size())
      << "golden table out of date: regenerate (see file header)";
  for (const QueryChecksum& expected : golden) {
    SCOPED_TRACE(testing::Message() << "query " << expected.query_id);
    const QueryChecksum actual = Execute(expected.query_id);
    EXPECT_EQ(actual.rows, expected.rows);
    ASSERT_EQ(actual.columns.size(), expected.columns.size());
    for (size_t c = 0; c < actual.columns.size(); ++c) {
      SCOPED_TRACE(testing::Message() << "column " << expected.columns[c].name);
      EXPECT_EQ(actual.columns[c].name, expected.columns[c].name);
      EXPECT_EQ(actual.columns[c].type, expected.columns[c].type);
      EXPECT_EQ(actual.columns[c].hash, expected.columns[c].hash);
      if (actual.columns[c].type == DataType::kFloat64) {
        const double want = expected.columns[c].sum;
        EXPECT_NEAR(actual.columns[c].sum, want,
                    1e-9 * (1.0 + std::abs(want)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: pooled (DAG-pipelined) execution promises BIT-identical
// results to serial — task outputs land in per-index slots and merges walk
// fixed index order, so even double summation order matches. Checksums are
// therefore compared with EXPECT_EQ, no epsilon.
// ---------------------------------------------------------------------------

void ExpectChecksumsBitIdentical(const QueryChecksum& a,
                                 const QueryChecksum& b) {
  EXPECT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "column " << a.columns[c].name);
    EXPECT_EQ(a.columns[c].name, b.columns[c].name);
    EXPECT_EQ(a.columns[c].type, b.columns[c].type);
    EXPECT_EQ(a.columns[c].hash, b.columns[c].hash);
    EXPECT_EQ(a.columns[c].sum, b.columns[c].sum);  // exact, not NEAR
  }
}

// Pooled execution changes only how stage tasks are scheduled, never the
// produced rows, their order, or float summation order. 8 threads
// oversubscribes a small host's cores.
TEST(TpchGoldenResultsTest, PooledExecutionIsBitIdenticalToSerial) {
  PlanExecutor serial;  // 1 thread, index order
  for (const int threads : {4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    PlanExecutor pooled(threads);
    for (const int id : AllTpchQueryIds()) {
      SCOPED_TRACE(testing::Message() << "query " << id);
      const StagePlan plan = BuildTpchPlan(id, TestCatalog(), PlanConfig{3});
      const QueryChecksum want = Checksum(id, serial.Execute(plan));
      ExpectChecksumsBitIdentical(want, Checksum(id, pooled.Execute(plan)));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: thread-pool execution must be equivalent to serial for every
// query. Rows are compared as sorted multisets so the check pins content,
// not an accidental row order.
// ---------------------------------------------------------------------------

using Cell = std::variant<int64_t, double, std::string>;

std::vector<std::vector<Cell>> SortedRows(const Table& table) {
  std::vector<std::vector<Cell>> rows(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    auto& row = rows[static_cast<size_t>(r)];
    row.reserve(static_cast<size_t>(table.num_columns()));
    for (int c = 0; c < table.num_columns(); ++c) {
      switch (table.column_def(c).type) {
        case DataType::kInt64:
          row.emplace_back(table.column(c).ints()[static_cast<size_t>(r)]);
          break;
        case DataType::kFloat64:
          row.emplace_back(table.column(c).doubles()[static_cast<size_t>(r)]);
          break;
        case DataType::kString:
          row.emplace_back(std::string(table.column(c).str(r)));
          break;
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class TpchThreadDifferentialTest : public ::testing::TestWithParam<int> {};

void ExpectSortedRowsNear(const std::vector<std::vector<Cell>>& rows_a,
                          const std::vector<std::vector<Cell>>& rows_b) {
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (size_t r = 0; r < rows_a.size(); ++r) {
    ASSERT_EQ(rows_a[r].size(), rows_b[r].size());
    for (size_t c = 0; c < rows_a[r].size(); ++c) {
      ASSERT_EQ(rows_a[r][c].index(), rows_b[r][c].index())
          << "row " << r << " col " << c;
      if (const double* x = std::get_if<double>(&rows_a[r][c])) {
        const double y = std::get<double>(rows_b[r][c]);
        ASSERT_NEAR(*x, y, 1e-9 * (1.0 + std::abs(*x)))
            << "row " << r << " col " << c;
      } else {
        ASSERT_EQ(rows_a[r][c], rows_b[r][c]) << "row " << r << " col " << c;
      }
    }
  }
}

TEST_P(TpchThreadDifferentialTest, SerialAndPooledAgree) {
  const Catalog& cat = TestCatalog();
  PlanExecutor serial(1);
  PlanExecutor pooled(4);
  const StagePlan plan = BuildTpchPlan(GetParam(), cat, PlanConfig{6});
  const auto rows_serial = SortedRows(serial.Execute(plan));
  ExpectSortedRowsNear(rows_serial, SortedRows(pooled.Execute(plan)));
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchThreadDifferentialTest,
                         ::testing::ValuesIn(AllTpchQueryIds()));

// ---------------------------------------------------------------------------
// Profile pins: the executor exists to produce per-query profiles, and the
// stage output bytes are the shuffle bytes the provisioning model consumes.
// The kernel counters record which path each operator took (packed or
// fallback keys, selection vectors, dictionary predicates). A change to how
// operators materialize their inputs must leave all of them unchanged.
// Regenerate with the recipe in the file header, filtering on
// TpchGoldenResultsTest.StageBytesAndKernelPathsArePinned.
// ---------------------------------------------------------------------------

struct PlanProfile {
  int query_id = 0;
  int64_t output_bytes = 0;  // sum of StageStats::output_bytes
  int64_t output_rows = 0;   // sum of StageStats::output_rows
  int64_t flat_table_builds = 0;
  int64_t keys_packed = 0;
  int64_t keys_fallback = 0;
  int64_t selection_vectors = 0;
  int64_t dict_predicates = 0;

  bool operator==(const PlanProfile&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PlanProfile& p) {
  return os << "{" << p.query_id << ", " << p.output_bytes << ", "
            << p.output_rows << ", " << p.flat_table_builds << ", "
            << p.keys_packed << ", " << p.keys_fallback << ", "
            << p.selection_vectors << ", " << p.dict_predicates << "}";
}

/// One serial run of `query_id`'s plan with the kernel counters reset first.
PlanProfile Profile(int query_id) {
  const StagePlan plan = BuildTpchPlan(query_id, TestCatalog(), PlanConfig{3});
  PlanExecutor executor;
  PlanRunStats stats;
  ExecMetrics().Reset();
  executor.Execute(plan, &stats);
  const ExecKernelMetrics& m = ExecMetrics();
  PlanProfile out;
  out.query_id = query_id;
  for (const StageStats& s : stats.stages) {
    out.output_bytes += s.output_bytes;
    out.output_rows += s.output_rows;
  }
  out.flat_table_builds = m.flat_table_builds.load();
  out.keys_packed = m.key_packed_activations.load();
  out.keys_fallback = m.key_fallback_activations.load();
  out.selection_vectors = m.selection_filters.load();
  out.dict_predicates = m.dict_predicate_evals.load();
  return out;
}

TEST(TpchGoldenResultsTest, StageBytesAndKernelPathsArePinned) {
  // {query, bytes, rows, flat builds, packed, fallback, selections, dict}
  const std::vector<PlanProfile> golden = {
      {1, 3512449, 60554, 0, 3, 0, 3, 0},
      {2, 198869, 8036, 10, 12, 0, 6, 4},
      {3, 802648, 40726, 9, 9, 0, 9, 3},
      {4, 320903, 38731, 3, 9, 0, 6, 0},
      {5, 1556231, 66861, 11, 17, 0, 7, 1},
      {6, 9472, 1184, 0, 1, 0, 3, 0},
      {7, 900598, 35909, 11, 17, 0, 8, 0},
      {8, 2067807, 66172, 15, 21, 0, 7, 4},
      {9, 2965846, 87971, 13, 19, 0, 3, 0},
      {10, 595909, 18720, 7, 13, 0, 6, 3},
      {11, 201776, 8613, 4, 8, 0, 2, 1},
      {12, 372595, 15315, 3, 8, 1, 3, 0},
      {13, 271952, 17747, 3, 9, 0, 3, 0},
      {14, 97692, 2842, 3, 7, 0, 3, 0},
      {15, 42976, 2681, 1, 5, 0, 4, 0},
      {16, 286904, 10096, 6, 9, 0, 4, 3},
      {17, 1453208, 60559, 5, 8, 0, 5, 6},
      {18, 1938164, 87580, 6, 9, 0, 3, 0},
      {19, 200473, 6294, 3, 7, 0, 6, 3},
      {20, 422216, 17638, 8, 11, 0, 10, 1},
      {21, 1515742, 68278, 13, 19, 3, 10, 4},
      {22, 129908, 15451, 3, 4, 6, 7, 0},
      {23, 114112, 6152, 3, 11, 0, 7, 0},
      {24, 250480, 11854, 15, 24, 0, 9, 0},
      {25, 4345115, 145067, 10, 16, 0, 0, 0},
  };
  if (std::getenv("CACKLE_REGEN_GOLDEN") != nullptr) {
    for (const int id : AllTpchQueryIds()) {
      std::cout << "      " << Profile(id) << ",\n";
    }
    GTEST_SKIP() << "regeneration mode: profile block printed";
  }
  ASSERT_EQ(golden.size(), AllTpchQueryIds().size())
      << "profile table out of date: regenerate (see above)";
  for (const PlanProfile& expected : golden) {
    EXPECT_EQ(Profile(expected.query_id), expected);
  }
}

// ---------------------------------------------------------------------------
// Engine-level golden fingerprints: a full engine run is hashed (every
// latency sample's bit pattern plus every counter) into one uint64 that must
// equal a committed constant, so a change anywhere in the engine's stack
// (the event core and the provisioning strategy included) that alters a
// result fails here. The constants date from when the binary-heap and
// calendar-queue schedulers ran side by side and agreed bit for bit.
// ---------------------------------------------------------------------------

uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 1099511628211ULL;
}

uint64_t FingerprintResult(const EngineResult& r) {
  uint64_t h = 1469598103934665603ULL;
  for (const double s : r.latencies_s.samples()) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(s));
    std::memcpy(&bits, &s, sizeof(bits));
    h = HashMix(h, bits);
  }
  for (const double s : r.batch_latencies_s.samples()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    h = HashMix(h, bits);
  }
  uint64_t cost_bits = 0;
  const double cost = r.total_cost();
  std::memcpy(&cost_bits, &cost, sizeof(cost_bits));
  h = HashMix(h, cost_bits);
  h = HashMix(h, static_cast<uint64_t>(r.makespan_ms));
  h = HashMix(h, static_cast<uint64_t>(r.queries_completed));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_on_vms));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_on_elastic));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_retried));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_speculated));
  h = HashMix(h, static_cast<uint64_t>(r.vms_interrupted));
  h = HashMix(h, static_cast<uint64_t>(r.stages_reexecuted));
  h = HashMix(h, static_cast<uint64_t>(r.elastic_failures));
  h = HashMix(h, static_cast<uint64_t>(r.queries_shed));
  return h;
}

EngineResult RunEngine(const WorkloadOptions& wl, const EngineOptions& opts) {
  static const ProfileLibrary* lib =
      new ProfileLibrary(ProfileLibrary::BuiltinTpch());
  static const CostModel* cost = new CostModel();
  WorkloadGenerator gen(lib);
  CackleEngine engine(cost, opts);
  return engine.Run(gen.Generate(wl), *lib);
}

TEST(EngineSchedulerGoldenTest, FingerprintsArePinned) {
  struct Covered {
    const char* label;
    uint64_t golden;
    WorkloadOptions workload;
    EngineOptions engine;
    bool expect_storms = false;
  };
  std::vector<Covered> covered;
  {
    Covered plain;
    plain.label = "interactive";
    plain.golden = 0xc1e100eecaa53f9cULL;
    plain.workload.num_queries = 60;
    plain.workload.duration_ms = kMillisPerHour / 6;
    plain.workload.arrival_period_ms = kMillisPerHour / 18;
    plain.workload.seed = 4242;
    covered.push_back(plain);
  }
  {
    Covered faulty;
    faulty.label = "faulty_mixed";
    faulty.golden = 0xeec25634f9b83ef1ULL;
    faulty.workload.num_queries = 60;
    faulty.workload.duration_ms = kMillisPerHour / 6;
    faulty.workload.arrival_period_ms = kMillisPerHour / 18;
    faulty.workload.batch_fraction = 0.25;
    faulty.workload.seed = 777;
    faulty.engine.spot_mean_lifetime_hours = 0.15;
    faulty.engine.faults.elastic_failure_rate = 0.01;
    faulty.engine.faults.elastic_straggler_rate = 0.02;
    faulty.engine.faults.elastic_straggler_slowdown = 3.0;
    covered.push_back(faulty);
  }
  {
    // Reclamation-storm bursts (VmFleet::InterruptN) on top of spot
    // lifetimes and launch failures, over a shortened scenario workload.
    auto loaded = LoadNamedScenario("reclamation_storm");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Covered storm;
    storm.label = "reclamation_storm";
    storm.golden = 0xbad54c40a5e879bdULL;
    storm.workload = loaded->workload;
    storm.workload.num_queries = 150;
    storm.engine = loaded->ToEngineOptions();
    storm.expect_storms = true;
    covered.push_back(storm);
  }
  for (const Covered& c : covered) {
    SCOPED_TRACE(c.label);
    const EngineResult result = RunEngine(c.workload, c.engine);
    const uint64_t fp = FingerprintResult(result);
    EXPECT_NE(fp, 1469598103934665603ULL) << "empty run fingerprint";
    if (c.expect_storms) {
      EXPECT_GT(result.storm_reclaims, 0) << "no storm burst fired";
    }
    EXPECT_EQ(fp, c.golden) << std::hex << "0x" << fp;
  }
}

// CackleEngine::Run accepts arrivals in any order. Equal-time arrivals must
// fire in vector-index order and interleave with same-time engine events
// exactly as per-arrival scheduling in index order would; this pins a run
// whose arrival vector is out of time order and full of equal-time ties.
TEST(EngineSchedulerGoldenTest, OutOfOrderArrivalsWithTiesArePinned) {
  static const ProfileLibrary* lib =
      new ProfileLibrary(ProfileLibrary::BuiltinTpch());
  WorkloadOptions wl;
  wl.num_queries = 80;
  wl.duration_ms = kMillisPerHour / 6;
  wl.arrival_period_ms = kMillisPerHour / 18;
  wl.batch_fraction = 0.2;
  wl.seed = 5151;
  WorkloadGenerator gen(lib);
  std::vector<QueryArrival> arrivals = gen.Generate(wl);
  // Whole-minute arrival times make ~10 queries share each instant; the
  // reverse-then-rotate puts the vector out of time order both globally and
  // within every tie group.
  for (QueryArrival& a : arrivals) {
    a.arrival_ms -= a.arrival_ms % kMillisPerMinute;
  }
  std::reverse(arrivals.begin(), arrivals.end());
  std::rotate(arrivals.begin(), arrivals.begin() + 27, arrivals.end());
  ASSERT_FALSE(std::is_sorted(
      arrivals.begin(), arrivals.end(),
      [](const QueryArrival& a, const QueryArrival& b) {
        return a.arrival_ms < b.arrival_ms;
      }));

  CostModel cost;
  CackleEngine engine(&cost, EngineOptions{});
  const EngineResult r = engine.Run(arrivals, *lib);
  EXPECT_EQ(r.queries_completed, wl.num_queries);
  const uint64_t fp = FingerprintResult(r);
  EXPECT_EQ(fp, 0x083f67c38cb9b32bULL) << std::hex << "0x" << fp;
}

}  // namespace
}  // namespace cackle::exec
