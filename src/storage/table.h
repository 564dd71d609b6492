#ifndef ACQUIRE_STORAGE_TABLE_H_
#define ACQUIRE_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace acquire {

/// Row-addressable columnar table. Intermediate join results are also
/// Tables, so every executor consumes and produces the same shape.
class Table {
 public:
  /// Creates an empty table; field `table` qualifiers are stamped with
  /// `name` when they are empty.
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) {
    stats_dirty_ = true;
    return columns_[i];
  }

  /// Appends one row; value count and types must match the schema.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends a batch of rows atomically: every row is type-checked against
  /// the schema BEFORE any column is touched, so a bad row leaves the table
  /// unchanged instead of half-appended (the live-ingestion path depends on
  /// the all-or-nothing contract).
  Status AppendRows(const std::vector<std::vector<Value>>& rows);

  /// The validation half of AppendRows, without mutation. A batch that
  /// passes cannot fail to apply — the write-ahead-log path validates, then
  /// logs, then applies, and depends on the apply being infallible.
  Status ValidateRows(const std::vector<std::vector<Value>>& rows) const;

  /// Bulk variant of AppendRow used by generators: appends typed values with
  /// per-column fast paths. All vectors must have schema-matching types.
  void ReserveRows(size_t n);

  /// Caller responsibility after direct mutable_column() appends: keeps the
  /// row count in sync (all columns must have equal size).
  Status FinalizeAppend();

  Value Get(size_t row, size_t col) const { return columns_[col].Get(row); }

  /// Full row materialization (mostly for tests and examples).
  std::vector<Value> GetRow(size_t row) const;

  /// Cached per-column stats; recomputed after mutation. Safe to call from
  /// concurrent readers (planners share a table under a read lock); the
  /// returned reference stays valid until the next mutation, and mutations
  /// must not run concurrently with readers.
  const ColumnStats& Stats(size_t col) const;

  /// Pretty-prints up to `limit` rows.
  std::string ToString(size_t limit = 10) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  mutable std::mutex stats_mu_;  // guards the lazy fill of stats_
  mutable std::vector<ColumnStats> stats_;
  mutable bool stats_dirty_ = true;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace acquire

#endif  // ACQUIRE_STORAGE_TABLE_H_
