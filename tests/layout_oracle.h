#ifndef ACQUIRE_TESTS_LAYOUT_ORACLE_H_
#define ACQUIRE_TESTS_LAYOUT_ORACLE_H_

// Brute-force reference for the cell-sorted layout build, shared by
// tests/parallel_prepare_test.cc and bench/index_prepare_bench.cc: rows
// grouped per level tuple in a std::map (so cells come out lexicographic),
// relation order within each cell, each cell folded with Init + Add in
// payload order.

#include <map>
#include <vector>

#include "index/parallel_prepare.h"

namespace acquire {
namespace test_util {

inline CellSortedLayout OracleLayout(const NeededMatrix& raw, double step,
                                     const AggregateOps& ops) {
  const size_t d = raw.dims;
  CellSortedLayout out;
  std::map<std::vector<int32_t>, std::vector<size_t>> cells;
  for (size_t row = 0; row < raw.rows; ++row) {
    std::vector<int32_t> key(d);
    bool reachable = true;
    for (size_t i = 0; i < d && reachable; ++i) {
      const int64_t level = PScoreLevel(raw.dim(i)[row], step);
      reachable = level >= 0;
      key[i] = static_cast<int32_t>(level);
    }
    if (reachable) {
      cells[key].push_back(row);
    } else {
      ++out.unreachable_rows;
    }
  }
  out.matrix.rows = raw.rows - out.unreachable_rows;
  out.matrix.dims = d;
  out.matrix.needed.resize(out.matrix.rows * d);
  out.matrix.agg_values.resize(out.matrix.rows);
  out.cell_offsets.push_back(0);
  size_t p = 0;
  for (const auto& [key, rows] : cells) {
    out.cell_keys.insert(out.cell_keys.end(), key.begin(), key.end());
    AggregateOps::State state = ops.Init();
    for (size_t row : rows) {
      for (size_t i = 0; i < d; ++i) {
        out.matrix.mutable_dim(i)[p] = raw.dim(i)[row];
      }
      out.matrix.agg_values[p] = raw.agg_values[row];
      ops.Add(&state, raw.agg_values[row]);
      ++p;
    }
    out.cell_offsets.push_back(static_cast<uint32_t>(p));
    out.cell_states.push_back(std::move(state));
  }
  return out;
}

}  // namespace test_util
}  // namespace acquire

#endif  // ACQUIRE_TESTS_LAYOUT_ORACLE_H_
