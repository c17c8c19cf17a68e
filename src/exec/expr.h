#ifndef CACKLE_EXEC_EXPR_H_
#define CACKLE_EXEC_EXPR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exec/table.h"

namespace cackle::exec {

/// \brief A vectorized scalar expression evaluated over a Table.
///
/// Expressions are immutable trees built with the factory functions below
/// (Col, Lit, Add, Lt, And, ...). Boolean results are kInt64 columns of
/// 0/1. Arithmetic on mixed int/double promotes to double.
class Expr {
 public:
  virtual ~Expr() = default;
  /// Result type given the input schema.
  virtual DataType OutputType(const Table& input) const = 0;
  /// Evaluates over all rows of `input`.
  virtual Column Eval(const Table& input) const = 0;
  /// Adds the names of all referenced columns to `out` (used by Project
  /// to gather only the columns a ranged scan reads).
  virtual void CollectColumns(std::set<std::string>* out) const = 0;

  // --- selection-vector kernels (vectorized Filter) -------------------------
  //
  // Instead of materializing a 0/1 mask column per predicate node and then
  // copying survivors, Filter asks the predicate tree for a selection
  // vector of matching row indices. Conjunctions refine the selection in
  // place (each AND leg only inspects surviving rows), and leaf predicates
  // provide typed kernels that read columns directly — including
  // dictionary-aware paths that evaluate a string predicate once per
  // dictionary entry and then test fixed-width codes per row.

  /// Appends the indices of rows where this (boolean 0/1 int64) expression
  /// is non-zero to `sel` (which must be empty). Default implementation
  /// evaluates the full mask with a counting first pass.
  virtual void InitSelection(const Table& input,
                             std::vector<int64_t>& sel) const;

  /// Filters `sel` in place, keeping rows where this predicate is non-zero.
  virtual void Refine(const Table& input, std::vector<int64_t>& sel) const;

  /// For plain column references: the input column, borrowed without a
  /// copy. Null for computed expressions.
  virtual const Column* TryBorrow(const Table& input) const {
    (void)input;
    return nullptr;
  }

  /// For string literals: the literal value. Null otherwise.
  virtual const std::string* TryStringLiteral() const { return nullptr; }

  /// For int/double literals: the literal value, null otherwise. These let
  /// the selection kernels lower column-vs-literal comparisons to typed
  /// branchless loops (no per-row double conversion, no literal-column
  /// materialization) that the compiler auto-vectorizes.
  virtual const int64_t* TryIntLiteral() const { return nullptr; }
  virtual const double* TryDoubleLiteral() const { return nullptr; }
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Row indices (ascending) of `input` where `pred` is non-zero.
std::vector<int64_t> EvalPredicateSelection(const ExprPtr& pred,
                                            const Table& input);

/// Convenience: referenced columns of a (possibly null) expression.
std::set<std::string> ReferencedColumns(const ExprPtr& expr);

/// Column reference by name (resolved against the input schema per batch).
ExprPtr Col(std::string name);
/// Literals.
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(std::string v);

/// Arithmetic (numeric inputs).
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);

/// Comparisons (numeric or string; both sides must match kind).
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);

/// Boolean connectives over 0/1 int columns.
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
/// Convenience n-ary and.
ExprPtr AllOf(std::vector<ExprPtr> exprs);

/// a <= x && x <= b.
ExprPtr Between(ExprPtr x, ExprPtr lo, ExprPtr hi);

/// Set membership.
ExprPtr InInt(ExprPtr x, std::vector<int64_t> values);
ExprPtr InString(ExprPtr x, std::vector<std::string> values);

/// String predicates (the executor's LIKE subset: '%kw%', 'kw%', '%kw').
ExprPtr StrContains(ExprPtr x, std::string needle);
ExprPtr StrPrefix(ExprPtr x, std::string prefix);
ExprPtr StrSuffix(ExprPtr x, std::string suffix);
/// '%kw1%kw2%' (two keywords in order, used by Q13's NOT LIKE).
ExprPtr StrContainsSeq(ExprPtr x, std::string first, std::string second);

/// if (cond) a else b; a and b must share a type kind.
ExprPtr If(ExprPtr cond, ExprPtr a, ExprPtr b);

/// Extracts the year of a date column (int64 days) as int64.
ExprPtr Year(ExprPtr date);

/// First `n` characters of a string column.
ExprPtr Substr(ExprPtr x, int n);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_EXPR_H_
