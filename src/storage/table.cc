#include "storage/table.h"

#include "common/string_util.h"

namespace acquire {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  std::vector<Field> stamped;
  stamped.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    Field g = f;
    if (g.table.empty()) g.table = name_;
    stamped.push_back(std::move(g));
  }
  schema_ = Schema(std::move(stamped));
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type);
  }
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(StringFormat(
        "row has %zu values, table %s has %zu columns", values.size(),
        name_.c_str(), columns_.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    ACQ_RETURN_IF_ERROR(columns_[i].Append(values[i]));
  }
  ++num_rows_;
  stats_dirty_ = true;
  return Status::OK();
}

Status Table::ValidateRows(
    const std::vector<std::vector<Value>>& rows) const {
  // The same rules Column::Append enforces — exact type match, except int64
  // widening into double columns. No mutation: callers (AppendRows here, the
  // WAL admission path in the server) rely on "validated rows cannot fail to
  // apply".
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<Value>& values = rows[r];
    if (values.size() != columns_.size()) {
      return Status::InvalidArgument(StringFormat(
          "row %zu has %zu values, table %s has %zu columns", r,
          values.size(), name_.c_str(), columns_.size()));
    }
    for (size_t i = 0; i < values.size(); ++i) {
      const Value& v = values[i];
      bool ok = false;
      switch (columns_[i].type()) {
        case DataType::kInt64:
          ok = v.is_int64();
          break;
        case DataType::kDouble:
          ok = v.is_double() || v.is_int64();
          break;
        case DataType::kString:
          ok = v.is_string();
          break;
      }
      if (!ok) {
        return Status::TypeError(StringFormat(
            "row %zu column %zu: type mismatch for table %s: %s", r, i,
            name_.c_str(), v.ToString().c_str()));
      }
    }
  }
  return Status::OK();
}

Status Table::AppendRows(const std::vector<std::vector<Value>>& rows) {
  ACQ_RETURN_IF_ERROR(ValidateRows(rows));
  ReserveRows(num_rows_ + rows.size());
  for (const std::vector<Value>& values : rows) {
    for (size_t i = 0; i < values.size(); ++i) {
      // Cannot fail: validated above.
      ACQ_RETURN_IF_ERROR(columns_[i].Append(values[i]));
    }
    ++num_rows_;
  }
  stats_dirty_ = true;
  return Status::OK();
}

void Table::ReserveRows(size_t n) {
  for (auto& c : columns_) c.Reserve(n);
}

Status Table::FinalizeAppend() {
  if (columns_.empty()) return Status::OK();
  size_t n = columns_[0].size();
  for (const auto& c : columns_) {
    if (c.size() != n) {
      return Status::Internal("ragged columns in table " + name_);
    }
  }
  num_rows_ = n;
  stats_dirty_ = true;
  return Status::OK();
}

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.Get(row));
  return out;
}

const ColumnStats& Table::Stats(size_t col) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (stats_dirty_) {
    stats_.clear();
    stats_.reserve(columns_.size());
    for (const auto& c : columns_) stats_.push_back(c.ComputeStats());
    stats_dirty_ = false;
  }
  return stats_[col];
}

std::string Table::ToString(size_t limit) const {
  std::string out = name_ + " " + schema_.ToString() + " rows=" +
                    std::to_string(num_rows_) + "\n";
  for (size_t r = 0; r < std::min(limit, num_rows_); ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (const auto& c : columns_) cells.push_back(c.Get(r).ToString());
    out += "  " + Join(cells, ", ") + "\n";
  }
  if (num_rows_ > limit) out += "  ...\n";
  return out;
}

}  // namespace acquire
