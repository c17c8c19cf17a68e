#ifndef CACKLE_EXEC_TABLE_H_
#define CACKLE_EXEC_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "exec/types.h"

namespace cackle::exec {

/// \brief An immutable, shared dictionary of distinct strings.
///
/// A dictionary-form string column stores per-row `int32_t` codes into one
/// of these, shared between every column gathered or sliced from it. Codes
/// give the executor fixed-width join/group keys (see operators.cc) and let
/// string predicates run once per distinct value. Code order is
/// first-occurrence order, so encoding is deterministic for a given value
/// sequence.
class StringDictionary {
 public:
  explicit StringDictionary(std::vector<std::string> values);

  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  const std::string& value(int32_t code) const {
    return values_[static_cast<size_t>(code)];
  }
  const std::vector<std::string>& values() const { return values_; }
  /// Code of `s`, or -1 when absent.
  int32_t CodeOf(const std::string& s) const;

 private:
  std::vector<std::string> values_;
  std::unordered_map<std::string, int32_t> index_;
};

using DictPtr = std::shared_ptr<const StringDictionary>;

/// \brief A typed column of values. Only the storage matching `type` is
/// populated.
///
/// A string column holds its rows in exactly one of two forms:
///   * dictionary: `codes()` into a shared `dict()` (`has_dict()`);
///   * plain: Arrow-style int64 `offsets` (rows + 1) into one byte buffer.
/// Kernels read a row through `str()`, or through `codes()` when a
/// dictionary is present. The bulk append kernels keep the dictionary form
/// where they can (an empty column adopts its source's dictionary; rows from
/// the same dictionary append codes) and otherwise decode the column to the
/// plain form, as do `AppendString` and `AppendGatherPadded`.
class Column {
 public:
  /// Read-only range over a string column's rows, each yielded as a
  /// `std::string`. For comparing results; kernels read `str()`.
  class StringRange {
   public:
    class Iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = std::string;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = std::string;

      Iterator(const Column* col, int64_t row) : col_(col), row_(row) {}
      std::string operator*() const { return std::string(col_->str(row_)); }
      Iterator& operator++() {
        ++row_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++row_;
        return old;
      }
      bool operator==(const Iterator& other) const {
        return row_ == other.row_;
      }

     private:
      const Column* col_;
      int64_t row_;
    };

    explicit StringRange(const Column* col) : col_(col) {}
    Iterator begin() const { return Iterator(col_, 0); }
    Iterator end() const { return Iterator(col_, col_->size()); }

   private:
    const Column* col_;
  };

  Column() : type_(DataType::kInt64) {}
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }

  int64_t size() const;
  void Reserve(int64_t n);

  // Typed access. The CHECKed accessors catch type confusion early.
  std::vector<int64_t>& ints() {
    CACKLE_CHECK(type_ == DataType::kInt64);
    return ints_;
  }
  const std::vector<int64_t>& ints() const {
    CACKLE_CHECK(type_ == DataType::kInt64);
    return ints_;
  }
  std::vector<double>& doubles() {
    CACKLE_CHECK(type_ == DataType::kFloat64);
    return doubles_;
  }
  const std::vector<double>& doubles() const {
    CACKLE_CHECK(type_ == DataType::kFloat64);
    return doubles_;
  }

  /// Row `row` of a string column, in either form. Valid until the column
  /// is next modified.
  std::string_view str(int64_t row) const {
    const size_t r = static_cast<size_t>(row);
    if (dict_ != nullptr) return dict_->value(codes_[r]);
    const int64_t begin = offsets_[r];
    return std::string_view(bytes_.data() + begin,
                            static_cast<size_t>(offsets_[r + 1] - begin));
  }
  StringRange strings() const {
    CACKLE_CHECK(type_ == DataType::kString);
    return StringRange(this);
  }

  void AppendInt(int64_t v) { ints().push_back(v); }
  void AppendDouble(double v) { doubles().push_back(v); }
  /// Appends to the plain form, decoding a dictionary column first. `v` must
  /// not view this column's own storage.
  void AppendString(std::string_view v);

  // --- dictionary form ------------------------------------------------------

  bool has_dict() const { return dict_ != nullptr; }
  const StringDictionary& dict() const {
    CACKLE_CHECK(dict_ != nullptr);
    return *dict_;
  }
  const DictPtr& dict_ptr() const { return dict_; }
  const std::vector<int32_t>& codes() const {
    CACKLE_CHECK(dict_ != nullptr);
    return codes_;
  }

  /// Converts a plain column to the dictionary form when the distinct count
  /// is small enough (`distinct <= max_dict_size` and
  /// `distinct*2 <= rows+64`). Returns true when the column is in the
  /// dictionary form afterwards.
  bool DictEncode(int64_t max_dict_size = 65535);

  /// Makes this empty string column a dictionary column with `codes`.
  void AttachDictionary(DictPtr dict, std::vector<int32_t> codes);

  // --- bulk append kernels --------------------------------------------------

  /// Appends rows [begin, end) of `src` in one pass.
  void AppendRange(const Column& src, int64_t begin, int64_t end);

  /// Appends `src[rows[i]]` for each i, column-major in one pass. Adopts
  /// `src`'s dictionary when this column is empty.
  void AppendGather(const Column& src, const std::vector<int64_t>& rows);

  /// Like AppendGather but a row index of -1 appends the type's default
  /// (0 / 0.0 / ""). Used for left-outer null padding; string rows land in
  /// the plain form.
  void AppendGatherPadded(const Column& src, const std::vector<int64_t>& rows);

  /// Logical size, used for shuffle and residency accounting. A string row
  /// counts 4 bytes plus its length in either form; a dictionary column
  /// also counts 4 bytes of code per row plus 4 bytes plus the length of
  /// each dictionary entry.
  int64_t EstimateBytes() const;

  /// Renders row `row` for result printing / test comparison.
  std::string ValueToString(int64_t row) const;

 private:
  /// Rows held by the plain string form.
  int64_t PlainRows() const {
    return offsets_.empty() ? 0 : static_cast<int64_t>(offsets_.size()) - 1;
  }
  /// Whether a string column may take on `src`'s dictionary: it is empty and
  /// has none of its own.
  bool AdoptsDictOf(const Column& src) const {
    return dict_ == nullptr && src.dict_ != nullptr && PlainRows() == 0;
  }
  /// Rewrites a dictionary column in the plain form; no-op when plain.
  void DecodeToPlain();
  /// Appends one value to the plain form (the column must be plain).
  void PushPlain(std::string_view v);

  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  // kString, dictionary form: codes_[i] indexes dict_.
  DictPtr dict_;
  std::vector<int32_t> codes_;
  // kString, plain form: row i is bytes_[offsets_[i], offsets_[i + 1]).
  // May be empty, rather than {0}, while the plain form holds no rows.
  std::vector<int64_t> offsets_;
  std::vector<char> bytes_;
};

/// \brief Column name + type.
struct ColumnDef {
  std::string name;
  DataType type;
};

/// \brief An in-memory columnar table (also used for intermediate batches).
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<ColumnDef> defs);

  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const std::vector<ColumnDef>& schema() const { return defs_; }
  const ColumnDef& column_def(int i) const {
    return defs_[static_cast<size_t>(i)];
  }

  /// Index of the column named `name`; aborts when absent.
  int ColumnIndex(std::string_view name) const;
  /// -1 when absent.
  int FindColumn(std::string_view name) const;

  Column& column(int i) { return columns_[static_cast<size_t>(i)]; }
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  const Column& column(std::string_view name) const {
    return columns_[static_cast<size_t>(ColumnIndex(name))];
  }

  /// Adds a column; its size must equal num_rows (or define it when this is
  /// the first column).
  void AddColumn(ColumnDef def, Column column);

  /// Recomputes num_rows from column sizes after bulk appends; all columns
  /// must agree.
  void FinishBulkAppend();

  /// Rows [begin, end).
  Table Slice(int64_t begin, int64_t end) const;

  /// New table with rows `rows[0]`, `rows[1]`, ... copied column-major in
  /// one pass per column (the executor's materialization kernel).
  Table GatherRows(const std::vector<int64_t>& rows) const;

  /// Attempts to dictionary-encode every string column (see
  /// Column::DictEncode); used at datagen/load time.
  void DictEncodeStringColumns(int64_t max_dict_size = 65535);

  int64_t EstimateBytes() const;

  /// Renders the table (header + rows) for debugging and result checks;
  /// doubles rounded to `decimals`.
  std::string ToString(int64_t max_rows = 50) const;

 private:
  friend Table Concat(const std::vector<Table>& tables);

  std::vector<ColumnDef> defs_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

/// Concatenates tables with identical schemas (empty input -> empty table).
/// String columns keep the dictionary form when every non-empty input chunk
/// carries a dictionary (identical dictionaries are shared; differing ones
/// are unioned in first-occurrence order, re-coding rows as needed), and are
/// plain otherwise.
Table Concat(const std::vector<Table>& tables);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_TABLE_H_
