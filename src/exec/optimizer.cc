#include "exec/optimizer.h"

#include <algorithm>

#include "common/logging.h"

namespace cackle::exec {
namespace {

/// A join's right side is broadcast (replicated to every task) instead of
/// co-partitioned when its estimated row count is at most this.
constexpr int64_t kBroadcastRowThreshold = 50'000;

bool SchemaHasAll(const std::vector<ColumnDef>& schema,
                  const std::set<std::string>& columns) {
  for (const std::string& name : columns) {
    bool found = false;
    for (const ColumnDef& def : schema) found |= def.name == name;
    if (!found) return false;
  }
  return true;
}

/// Whether every column in `columns` passes through `project` unchanged
/// (projected as a bare column reference under the same name), so a filter
/// referencing them can move below the projection.
bool PassesThrough(const LogicalNode& project,
                   const std::set<std::string>& columns) {
  for (const std::string& name : columns) {
    bool ok = false;
    for (const NamedExpr& item : project.projections) {
      if (item.name != name) continue;
      const std::set<std::string> refs = ReferencedColumns(item.expr);
      ok = refs.size() == 1 && *refs.begin() == name;
      break;
    }
    if (!ok) return false;
  }
  return true;
}

/// Pushes one conjunct as deep as possible into `node`; returns true when
/// the conjunct was absorbed (else the caller keeps it in a Filter above).
bool PushConjunct(const LogicalNodePtr& node, const ExprPtr& conjunct,
                  const TableResolver& resolver) {
  const std::set<std::string> refs = ReferencedColumns(conjunct);
  switch (node->type) {
    case LogicalOpType::kScan: {
      const Table* table = resolver.Find(node->table_name);
      if (table == nullptr) return false;
      if (!SchemaHasAll(table->schema(), refs)) return false;
      node->scan_predicates.push_back(conjunct);
      return true;
    }
    case LogicalOpType::kFilter:
      if (!PushConjunct(node->children[0], conjunct, resolver)) {
        node->conjuncts.push_back(conjunct);
      }
      return true;
    case LogicalOpType::kProject: {
      if (!PassesThrough(*node, refs)) return false;
      if (!PushConjunct(node->children[0], conjunct, resolver)) {
        // Wrap the child in a filter below the projection.
        node->children[0] = LFilter(node->children[0], conjunct);
      }
      return true;
    }
    case LogicalOpType::kJoin: {
      auto left_schema = OutputSchema(node->children[0], resolver);
      if (left_schema.ok() && SchemaHasAll(*left_schema, refs)) {
        if (!PushConjunct(node->children[0], conjunct, resolver)) {
          node->children[0] = LFilter(node->children[0], conjunct);
        }
        return true;
      }
      // Right-side pushes are only safe for inner joins (an outer join
      // would need the unmatched padding to survive; semi/anti right sides
      // do not appear in the output at all, so a conjunct referencing them
      // must be part of the join, not a post-filter).
      if (node->join_type != JoinType::kInner) return false;
      auto right_schema = OutputSchema(node->children[1], resolver);
      if (right_schema.ok() && SchemaHasAll(*right_schema, refs)) {
        if (!PushConjunct(node->children[1], conjunct, resolver)) {
          node->children[1] = LFilter(node->children[1], conjunct);
        }
        return true;
      }
      return false;
    }
    case LogicalOpType::kAggregate:
      // A conjunct over group-by columns only could move below, but
      // aggregate semantics with having-style filters are subtle; keep it
      // above (correct, just not optimal).
      return false;
    case LogicalOpType::kSort:
      // Filtering before a limit changes results; only push when there is
      // no limit.
      if (node->limit >= 0) return false;
      if (!PushConjunct(node->children[0], conjunct, resolver)) {
        node->children[0] = LFilter(node->children[0], conjunct);
      }
      return true;
  }
  return false;
}

Status PushDownFilters(const LogicalNodePtr& node,
                       const TableResolver& resolver) {
  for (LogicalNodePtr& child : node->children) {
    // Absorb filter children whose conjuncts all push through.
    if (child->type == LogicalOpType::kFilter) {
      std::vector<ExprPtr> kept;
      for (const ExprPtr& conjunct : child->conjuncts) {
        if (!PushConjunct(child->children[0], conjunct, resolver)) {
          kept.push_back(conjunct);
        }
      }
      if (kept.empty()) {
        child = child->children[0];
      } else {
        child->conjuncts = std::move(kept);
      }
    }
    CACKLE_RETURN_IF_ERROR(PushDownFilters(child, resolver));
  }
  return Status::OK();
}

void ChooseBroadcastJoins(const LogicalNodePtr& node,
                          const TableResolver& resolver) {
  for (const LogicalNodePtr& child : node->children) {
    ChooseBroadcastJoins(child, resolver);
  }
  if (node->type == LogicalOpType::kJoin) {
    node->broadcast_right =
        EstimateRows(node->children[1], resolver) <= kBroadcastRowThreshold;
  }
}

/// Columns of `node`'s output that `parent_needs` requires, mapped to what
/// node's own child must produce; prunes scan columns along the way.
Status PruneColumns(const LogicalNodePtr& node,
                    const std::set<std::string>& parent_needs,
                    const TableResolver& resolver) {
  switch (node->type) {
    case LogicalOpType::kScan: {
      const Table* table = resolver.Find(node->table_name);
      if (table == nullptr) {
        return Status::NotFound("unknown table " + node->table_name);
      }
      std::set<std::string> needed = parent_needs;
      for (const ExprPtr& pred : node->scan_predicates) {
        const std::set<std::string> refs = ReferencedColumns(pred);
        needed.insert(refs.begin(), refs.end());
      }
      node->scan_columns.clear();
      for (const ColumnDef& def : table->schema()) {
        if (needed.count(def.name)) node->scan_columns.push_back(def.name);
      }
      if (node->scan_columns.empty() && !table->schema().empty()) {
        // Keep at least one column so row counts survive.
        node->scan_columns.push_back(table->schema()[0].name);
      }
      return Status::OK();
    }
    case LogicalOpType::kFilter: {
      std::set<std::string> needed = parent_needs;
      for (const ExprPtr& conjunct : node->conjuncts) {
        const std::set<std::string> refs = ReferencedColumns(conjunct);
        needed.insert(refs.begin(), refs.end());
      }
      return PruneColumns(node->children[0], needed, resolver);
    }
    case LogicalOpType::kProject: {
      std::set<std::string> needed;
      for (const NamedExpr& item : node->projections) {
        const std::set<std::string> refs = ReferencedColumns(item.expr);
        needed.insert(refs.begin(), refs.end());
      }
      return PruneColumns(node->children[0], needed, resolver);
    }
    case LogicalOpType::kJoin: {
      CACKLE_ASSIGN_OR_RETURN(const std::vector<ColumnDef> left_schema,
                              OutputSchema(node->children[0], resolver));
      std::set<std::string> left_needs;
      std::set<std::string> right_needs;
      for (const std::string& name : parent_needs) {
        bool in_left = false;
        for (const ColumnDef& def : left_schema) in_left |= def.name == name;
        if (in_left) {
          left_needs.insert(name);
        } else {
          right_needs.insert(name);
        }
      }
      left_needs.insert(node->left_keys.begin(), node->left_keys.end());
      right_needs.insert(node->right_keys.begin(), node->right_keys.end());
      CACKLE_RETURN_IF_ERROR(
          PruneColumns(node->children[0], left_needs, resolver));
      return PruneColumns(node->children[1], right_needs, resolver);
    }
    case LogicalOpType::kAggregate: {
      std::set<std::string> needed(node->group_by.begin(),
                                   node->group_by.end());
      for (const AggSpec& agg : node->aggregates) {
        const std::set<std::string> refs = ReferencedColumns(agg.input);
        needed.insert(refs.begin(), refs.end());
      }
      return PruneColumns(node->children[0], needed, resolver);
    }
    case LogicalOpType::kSort: {
      std::set<std::string> needed = parent_needs;
      for (const SortKey& key : node->sort_keys) needed.insert(key.column);
      return PruneColumns(node->children[0], needed, resolver);
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

int64_t EstimateRows(const LogicalNodePtr& node,
                     const TableResolver& resolver) {
  switch (node->type) {
    case LogicalOpType::kScan: {
      const Table* table = resolver.Find(node->table_name);
      double rows = table == nullptr
                        ? 1'000'000.0
                        : static_cast<double>(table->num_rows());
      for (size_t i = 0; i < node->scan_predicates.size(); ++i) rows *= 0.25;
      return std::max<int64_t>(1, static_cast<int64_t>(rows));
    }
    case LogicalOpType::kFilter: {
      double rows =
          static_cast<double>(EstimateRows(node->children[0], resolver));
      for (size_t i = 0; i < node->conjuncts.size(); ++i) rows *= 0.25;
      return std::max<int64_t>(1, static_cast<int64_t>(rows));
    }
    case LogicalOpType::kProject:
    case LogicalOpType::kSort:
      return EstimateRows(node->children[0], resolver);
    case LogicalOpType::kJoin: {
      const int64_t left = EstimateRows(node->children[0], resolver);
      const int64_t right = EstimateRows(node->children[1], resolver);
      return std::min(left, right);
    }
    case LogicalOpType::kAggregate:
      return std::max<int64_t>(
          1, EstimateRows(node->children[0], resolver) / 10);
  }
  return 1;
}

StatusOr<LogicalNodePtr> Optimize(LogicalNodePtr plan,
                                  const TableResolver& resolver) {
  // Validate the input tree first: every rule below may assume schemas
  // resolve.
  CACKLE_RETURN_IF_ERROR(OutputSchema(plan, resolver).status());

  // The root itself may be a filter; wrap in a trivial holder so the
  // pushdown rule sees it as a child.
  auto holder = std::make_shared<LogicalNode>();
  holder->type = LogicalOpType::kSort;  // placeholder; only children used
  holder->children = {plan};
  CACKLE_RETURN_IF_ERROR(PushDownFilters(holder, resolver));
  plan = holder->children[0];

  ChooseBroadcastJoins(plan, resolver);

  CACKLE_ASSIGN_OR_RETURN(const std::vector<ColumnDef> root_schema,
                          OutputSchema(plan, resolver));
  std::set<std::string> all;
  for (const ColumnDef& def : root_schema) all.insert(def.name);
  CACKLE_RETURN_IF_ERROR(PruneColumns(plan, all, resolver));
  // The rules must preserve schema validity.
  CACKLE_RETURN_IF_ERROR(OutputSchema(plan, resolver).status());
  return plan;
}

}  // namespace cackle::exec
