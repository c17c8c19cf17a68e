#include "exec/datagen.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace cackle::exec {
namespace {

// Region/nation comment text is independent of the caller's seed (both
// tables are fixed 5- and 25-row TPC-H dimension tables baked into the
// golden fixtures), so they draw from fixed named streams. The values keep
// the historical literal seeds so regeneration stays bit-identical.
constexpr uint64_t kRegionCommentSeed = 1;
constexpr uint64_t kNationCommentSeed = 2;

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};
// TPC-H nation -> region mapping.
struct NationSpec {
  const char* name;
  int64_t region;
};
const NationSpec kNations[25] = {
    {"ALGERIA", 0},      {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},       {"EGYPT", 4},     {"ETHIOPIA", 0},
    {"FRANCE", 3},       {"GERMANY", 3},   {"INDIA", 2},
    {"INDONESIA", 2},    {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},        {"JORDAN", 4},    {"KENYA", 0},
    {"MOROCCO", 0},      {"MOZAMBIQUE", 0}, {"PERU", 1},
    {"CHINA", 2},        {"ROMANIA", 3},   {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},      {"RUSSIA", 3},    {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                            "FOB"};
const char* kShipInstruct[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kContainers1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainers2[] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                              "CAN", "DRUM"};
const char* kTypes1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                         "PROMO"};
const char* kTypes2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                         "BRUSHED"};
const char* kTypes3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kColors[] = {"almond", "antique", "aquamarine", "azure", "beige",
                         "bisque", "black", "blanched", "blue", "blush",
                         "brown", "burlywood", "chartreuse", "chiffon",
                         "chocolate", "coral", "cornflower", "cream",
                         "cyan", "dark", "deep", "dim", "dodger", "drab",
                         "firebrick", "forest", "frosted", "gainsboro",
                         "ghost", "goldenrod", "green", "grey", "honeydew",
                         "hot", "indian", "ivory", "khaki", "lace",
                         "lavender", "lawn", "lemon", "light", "lime",
                         "linen", "magenta", "maroon", "medium", "metallic",
                         "midnight", "mint", "misty", "moccasin", "navajo",
                         "navy", "olive", "orange", "orchid", "pale",
                         "papaya", "peach", "peru", "pink", "plum", "powder",
                         "puff", "purple", "red", "rose", "rosy", "royal",
                         "saddle", "salmon", "sandy", "seashell", "sienna",
                         "sky", "slate", "smoke", "snow", "spring", "steel",
                         "tan", "thistle", "tomato", "turquoise", "violet",
                         "wheat", "white", "yellow"};
const char* kCommentWords[] = {
    "carefully", "quickly", "furiously", "slyly",    "blithely", "regular",
    "final",     "ironic",  "pending",   "bold",     "express",  "silent",
    "even",      "packages", "deposits", "accounts", "requests", "theodolites",
    "platelets", "foxes",   "instructions", "dependencies", "pinto", "beans",
    "asymptotes", "courts", "ideas",     "dolphins", "sleep",    "haggle",
    "nag",       "wake",    "cajole",    "engage",   "detect",   "integrate"};

template <size_t N>
const char* Pick(const char* const (&arr)[N], Rng* rng) {
  return arr[rng->NextBounded(N)];
}

std::string MakeComment(Rng* rng, int min_words, int max_words,
                        const char* keyword = nullptr) {
  const int words = static_cast<int>(
      rng->NextInt(min_words, max_words));
  std::string out;
  const int keyword_at =
      keyword != nullptr ? static_cast<int>(rng->NextBounded(
                               static_cast<uint64_t>(words)))
                         : -1;
  for (int w = 0; w < words; ++w) {
    if (!out.empty()) out += ' ';
    if (w == keyword_at) {
      out += keyword;
    } else {
      out += Pick(kCommentWords, rng);
    }
  }
  return out;
}

std::string MakePhone(int64_t nation_key, Rng* rng) {
  // Country code = nation_key + 10, per the spec.
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d",
                static_cast<int>(nation_key + 10),
                static_cast<int>(rng->NextInt(100, 999)),
                static_cast<int>(rng->NextInt(100, 999)),
                static_cast<int>(rng->NextInt(1000, 9999)));
  return buf;
}

/// Reserves `rows` in every column of `t`, so generation appends without
/// regrowing and leaves no outgrown buffers behind in the heap.
void ReserveRows(Table* t, int64_t rows) {
  for (int c = 0; c < t->num_columns(); ++c) t->column(c).Reserve(rows);
}

Table MakeRegion() {
  Table t({{"r_regionkey", DataType::kInt64},
           {"r_name", DataType::kString},
           {"r_comment", DataType::kString}});
  Rng rng(kRegionCommentSeed);
  for (int64_t r = 0; r < 5; ++r) {
    t.column(0).AppendInt(r);
    t.column(1).AppendString(kRegions[r]);
    t.column(2).AppendString(MakeComment(&rng, 4, 10));
  }
  t.FinishBulkAppend();
  return t;
}

Table MakeNation() {
  Table t({{"n_nationkey", DataType::kInt64},
           {"n_name", DataType::kString},
           {"n_regionkey", DataType::kInt64},
           {"n_comment", DataType::kString}});
  Rng rng(kNationCommentSeed);
  for (int64_t n = 0; n < 25; ++n) {
    t.column(0).AppendInt(n);
    t.column(1).AppendString(kNations[n].name);
    t.column(2).AppendInt(kNations[n].region);
    t.column(3).AppendString(MakeComment(&rng, 4, 10));
  }
  t.FinishBulkAppend();
  return t;
}

}  // namespace

int64_t TpchRows(const char* table, double sf) {
  auto scaled = [sf](double base) {
    return std::max<int64_t>(1, static_cast<int64_t>(std::llround(base * sf)));
  };
  if (std::strcmp(table, "region") == 0) return 5;
  if (std::strcmp(table, "nation") == 0) return 25;
  if (std::strcmp(table, "supplier") == 0) return scaled(10'000);
  if (std::strcmp(table, "part") == 0) return scaled(200'000);
  if (std::strcmp(table, "partsupp") == 0) return scaled(800'000);
  if (std::strcmp(table, "customer") == 0) return scaled(150'000);
  if (std::strcmp(table, "orders") == 0) return scaled(1'500'000);
  CACKLE_CHECK(false) << "unknown table " << table;
  __builtin_unreachable();
}

Catalog GenerateTpch(double scale_factor, uint64_t seed) {
  CACKLE_CHECK_GT(scale_factor, 0.0);
  Catalog cat;
  cat.region = MakeRegion();
  cat.nation = MakeNation();
  Rng master(seed);

  const int64_t num_supplier = TpchRows("supplier", scale_factor);
  const int64_t num_part = TpchRows("part", scale_factor);
  const int64_t num_customer = TpchRows("customer", scale_factor);
  const int64_t num_orders = TpchRows("orders", scale_factor);

  // --- supplier ---
  {
    Rng rng = master.Fork();
    Table t({{"s_suppkey", DataType::kInt64},
             {"s_name", DataType::kString},
             {"s_address", DataType::kString},
             {"s_nationkey", DataType::kInt64},
             {"s_phone", DataType::kString},
             {"s_acctbal", DataType::kFloat64},
             {"s_comment", DataType::kString}});
    ReserveRows(&t, num_supplier);
    for (int64_t k = 1; k <= num_supplier; ++k) {
      const int64_t nation = rng.NextInt(0, 24);
      t.column(0).AppendInt(k);
      char name[32];
      std::snprintf(name, sizeof(name), "Supplier#%09lld",
                    static_cast<long long>(k));
      t.column(1).AppendString(name);
      t.column(2).AppendString(MakeComment(&rng, 2, 4));
      t.column(3).AppendInt(nation);
      t.column(4).AppendString(MakePhone(nation, &rng));
      t.column(5).AppendDouble(rng.NextDouble(-999.99, 9999.99));
      // ~0.05% suppliers have "Customer ... Complaints" comments (Q16).
      const bool complaints = rng.NextBernoulli(0.005);
      t.column(6).AppendString(
          complaints ? "the Customer of slow Complaints " +
                           MakeComment(&rng, 3, 6)
                     : MakeComment(&rng, 6, 12));
    }
    t.FinishBulkAppend();
    cat.supplier = std::move(t);
  }

  // --- part ---
  {
    Rng rng = master.Fork();
    Table t({{"p_partkey", DataType::kInt64},
             {"p_name", DataType::kString},
             {"p_mfgr", DataType::kString},
             {"p_brand", DataType::kString},
             {"p_type", DataType::kString},
             {"p_size", DataType::kInt64},
             {"p_container", DataType::kString},
             {"p_retailprice", DataType::kFloat64},
             {"p_comment", DataType::kString}});
    ReserveRows(&t, num_part);
    for (int64_t k = 1; k <= num_part; ++k) {
      t.column(0).AppendInt(k);
      // p_name: five distinct colors.
      std::string name;
      for (int w = 0; w < 5; ++w) {
        if (w > 0) name += ' ';
        name += Pick(kColors, &rng);
      }
      t.column(1).AppendString(name);
      const int m = static_cast<int>(rng.NextInt(1, 5));
      char mfgr[32];
      std::snprintf(mfgr, sizeof(mfgr), "Manufacturer#%d", m);
      t.column(2).AppendString(mfgr);
      char brand[32];
      std::snprintf(brand, sizeof(brand), "Brand#%d%d", m,
                    static_cast<int>(rng.NextInt(1, 5)));
      t.column(3).AppendString(brand);
      std::string type = Pick(kTypes1, &rng);
      type += ' ';
      type += Pick(kTypes2, &rng);
      type += ' ';
      type += Pick(kTypes3, &rng);
      t.column(4).AppendString(type);
      t.column(5).AppendInt(rng.NextInt(1, 50));
      std::string container = Pick(kContainers1, &rng);
      container += ' ';
      container += Pick(kContainers2, &rng);
      t.column(6).AppendString(container);
      // Spec formula: 90000 + ((partkey/10) % 20001) + 100*(partkey % 1000),
      // all over 100.
      t.column(7).AppendDouble(
          (90000.0 + static_cast<double>((k / 10) % 20001) +
           100.0 * static_cast<double>(k % 1000)) /
          100.0);
      t.column(8).AppendString(MakeComment(&rng, 2, 5));
    }
    t.FinishBulkAppend();
    cat.part = std::move(t);
  }

  // --- partsupp: 4 suppliers per part, spec key formula ---
  {
    Rng rng = master.Fork();
    Table t({{"ps_partkey", DataType::kInt64},
             {"ps_suppkey", DataType::kInt64},
             {"ps_availqty", DataType::kInt64},
             {"ps_supplycost", DataType::kFloat64},
             {"ps_comment", DataType::kString}});
    ReserveRows(&t, 4 * num_part);
    for (int64_t k = 1; k <= num_part; ++k) {
      for (int64_t i = 0; i < 4; ++i) {
        const int64_t s = num_supplier;
        const int64_t suppkey =
            (k + (i * ((s / 4) + (k - 1) / s))) % s + 1;
        t.column(0).AppendInt(k);
        t.column(1).AppendInt(suppkey);
        t.column(2).AppendInt(rng.NextInt(1, 9999));
        t.column(3).AppendDouble(rng.NextDouble(1.0, 1000.0));
        t.column(4).AppendString(MakeComment(&rng, 2, 6));
      }
    }
    t.FinishBulkAppend();
    cat.partsupp = std::move(t);
  }

  // --- customer ---
  {
    Rng rng = master.Fork();
    Table t({{"c_custkey", DataType::kInt64},
             {"c_name", DataType::kString},
             {"c_address", DataType::kString},
             {"c_nationkey", DataType::kInt64},
             {"c_phone", DataType::kString},
             {"c_acctbal", DataType::kFloat64},
             {"c_mktsegment", DataType::kString},
             {"c_comment", DataType::kString}});
    ReserveRows(&t, num_customer);
    for (int64_t k = 1; k <= num_customer; ++k) {
      const int64_t nation = rng.NextInt(0, 24);
      t.column(0).AppendInt(k);
      char name[32];
      std::snprintf(name, sizeof(name), "Customer#%09lld",
                    static_cast<long long>(k));
      t.column(1).AppendString(name);
      t.column(2).AppendString(MakeComment(&rng, 2, 4));
      t.column(3).AppendInt(nation);
      t.column(4).AppendString(MakePhone(nation, &rng));
      t.column(5).AppendDouble(rng.NextDouble(-999.99, 9999.99));
      t.column(6).AppendString(Pick(kSegments, &rng));
      t.column(7).AppendString(MakeComment(&rng, 6, 12));
    }
    t.FinishBulkAppend();
    cat.customer = std::move(t);
  }

  // --- orders + lineitem ---
  {
    Rng rng = master.Fork();
    Table orders({{"o_orderkey", DataType::kInt64},
                  {"o_custkey", DataType::kInt64},
                  {"o_orderstatus", DataType::kString},
                  {"o_totalprice", DataType::kFloat64},
                  {"o_orderdate", DataType::kInt64},
                  {"o_orderpriority", DataType::kString},
                  {"o_clerk", DataType::kString},
                  {"o_shippriority", DataType::kInt64},
                  {"o_comment", DataType::kString}});
    Table lineitem({{"l_orderkey", DataType::kInt64},
                    {"l_partkey", DataType::kInt64},
                    {"l_suppkey", DataType::kInt64},
                    {"l_linenumber", DataType::kInt64},
                    {"l_quantity", DataType::kFloat64},
                    {"l_extendedprice", DataType::kFloat64},
                    {"l_discount", DataType::kFloat64},
                    {"l_tax", DataType::kFloat64},
                    {"l_returnflag", DataType::kString},
                    {"l_linestatus", DataType::kString},
                    {"l_shipdate", DataType::kInt64},
                    {"l_commitdate", DataType::kInt64},
                    {"l_receiptdate", DataType::kInt64},
                    {"l_shipinstruct", DataType::kString},
                    {"l_shipmode", DataType::kString},
                    {"l_comment", DataType::kString}});
    // At most 7 lines per order; capacity never written is never resident.
    ReserveRows(&orders, num_orders);
    ReserveRows(&lineitem, 7 * num_orders);
    const int64_t current_date = DateFromCivil(1995, 6, 17);
    for (int64_t o = 1; o <= num_orders; ++o) {
      // Sparse order keys: 8 per group of 32 (spec).
      const int64_t orderkey = ((o - 1) / 8) * 32 + ((o - 1) % 8) + 1;
      // Only two-thirds of customers have orders: custkey never = 0 mod 3.
      int64_t custkey = rng.NextInt(1, num_customer);
      while (custkey % 3 == 0) custkey = rng.NextInt(1, num_customer);
      const int64_t orderdate =
          rng.NextInt(kTpchStartDate, kTpchEndDate - 151);
      const int64_t num_lines = rng.NextInt(1, 7);
      double totalprice = 0.0;
      int fulfilled = 0;
      for (int64_t l = 1; l <= num_lines; ++l) {
        const int64_t partkey = rng.NextInt(1, num_part);
        const int64_t i = rng.NextInt(0, 3);
        const int64_t s = num_supplier;
        const int64_t suppkey =
            (partkey + (i * ((s / 4) + (partkey - 1) / s))) % s + 1;
        const double quantity = static_cast<double>(rng.NextInt(1, 50));
        const double retail =
            (90000.0 + static_cast<double>((partkey / 10) % 20001) +
             100.0 * static_cast<double>(partkey % 1000)) /
            100.0;
        const double extprice = quantity * retail;
        const double discount =
            static_cast<double>(rng.NextInt(0, 10)) / 100.0;
        const double tax = static_cast<double>(rng.NextInt(0, 8)) / 100.0;
        const int64_t shipdate = orderdate + rng.NextInt(1, 121);
        const int64_t commitdate = orderdate + rng.NextInt(30, 90);
        const int64_t receiptdate = shipdate + rng.NextInt(1, 30);
        const bool shipped = shipdate <= current_date;
        const bool received = receiptdate <= current_date;
        fulfilled += received ? 1 : 0;
        lineitem.column(0).AppendInt(orderkey);
        lineitem.column(1).AppendInt(partkey);
        lineitem.column(2).AppendInt(suppkey);
        lineitem.column(3).AppendInt(l);
        lineitem.column(4).AppendDouble(quantity);
        lineitem.column(5).AppendDouble(extprice);
        lineitem.column(6).AppendDouble(discount);
        lineitem.column(7).AppendDouble(tax);
        lineitem.column(8).AppendString(
            received ? (rng.NextBernoulli(0.5) ? "R" : "A") : "N");
        lineitem.column(9).AppendString(shipped ? "F" : "O");
        lineitem.column(10).AppendInt(shipdate);
        lineitem.column(11).AppendInt(commitdate);
        lineitem.column(12).AppendInt(receiptdate);
        lineitem.column(13).AppendString(Pick(kShipInstruct, &rng));
        lineitem.column(14).AppendString(Pick(kShipModes, &rng));
        lineitem.column(15).AppendString(MakeComment(&rng, 2, 6));
        totalprice += extprice * (1.0 + tax) * (1.0 - discount);
      }
      orders.column(0).AppendInt(orderkey);
      orders.column(1).AppendInt(custkey);
      orders.column(2).AppendString(fulfilled == num_lines ? "F"
                                    : fulfilled == 0       ? "O"
                                                           : "P");
      orders.column(3).AppendDouble(totalprice);
      orders.column(4).AppendInt(orderdate);
      orders.column(5).AppendString(Pick(kPriorities, &rng));
      char clerk[32];
      std::snprintf(clerk, sizeof(clerk), "Clerk#%09d",
                    static_cast<int>(rng.NextInt(1, std::max<int64_t>(
                                                        1, num_orders / 1000))));
      orders.column(6).AppendString(clerk);
      orders.column(7).AppendInt(0);
      // ~1% of order comments mention "special requests" (Q13).
      orders.column(8).AppendString(
          rng.NextBernoulli(0.02)
              ? MakeComment(&rng, 3, 6) + " special requests " +
                    MakeComment(&rng, 1, 3)
              : MakeComment(&rng, 4, 10));
    }
    orders.FinishBulkAppend();
    lineitem.FinishBulkAppend();
    cat.orders = std::move(orders);
    cat.lineitem = std::move(lineitem);
  }
  // Dictionary-encode low-cardinality string columns (flags, statuses,
  // segments, names) so join/group keys over them are fixed-width codes.
  // High-cardinality columns (comments, addresses) are left plain by the
  // profitability rule in Column::DictEncode.
  cat.region.DictEncodeStringColumns();
  cat.nation.DictEncodeStringColumns();
  cat.supplier.DictEncodeStringColumns();
  cat.part.DictEncodeStringColumns();
  cat.partsupp.DictEncodeStringColumns();
  cat.customer.DictEncodeStringColumns();
  cat.orders.DictEncodeStringColumns();
  cat.lineitem.DictEncodeStringColumns();
  return cat;
}

}  // namespace cackle::exec
