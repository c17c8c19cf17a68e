#ifndef CACKLE_EXEC_OPTIMIZER_H_
#define CACKLE_EXEC_OPTIMIZER_H_

#include <cstdint>

#include "common/status.h"
#include "exec/logical.h"

namespace cackle::exec {

/// \brief Rule-based logical optimizer. Applies, in order:
///
///  1. *Filter pushdown*: each conjunct moves as deep as its referenced
///     columns allow — through projections (when the referenced columns
///     pass through unchanged), into the matching side of a join, and into
///     the scan itself (`scan_predicates`).
///  2. *Broadcast selection*: joins whose right side is estimated at most
///     50 000 rows (scans of small tables, shrunk by filters) are marked
///     `broadcast_right`, avoiding a shuffle of the big side.
///  3. *Column pruning*: scans read only the columns some ancestor needs
///     (`scan_columns`).
///
/// The input tree is consumed; the returned tree produces identical results
/// (tested against unoptimized execution) with less work.
[[nodiscard]] StatusOr<LogicalNodePtr> Optimize(LogicalNodePtr plan,
                                                const TableResolver& resolver);

/// Row-count estimate used by broadcast selection (exposed for tests):
/// base-table rows for scans, scaled by 0.25 per pushed filter conjunct,
/// preserved through projections, min(left, right) for inner joins.
int64_t EstimateRows(const LogicalNodePtr& node,
                     const TableResolver& resolver);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_OPTIMIZER_H_
