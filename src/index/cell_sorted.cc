#include "index/cell_sorted.h"

#include <algorithm>
#include <numeric>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/eval_kernel.h"

namespace acquire {

CellSortedEvaluationLayer::CellSortedEvaluationLayer(const AcqTask* task,
                                                     double step,
                                                     ThreadPool* pool)
    : EvaluationLayer(task),
      step_(step),
      pool_(pool != nullptr ? pool : &ThreadPool::Shared()) {}

Status CellSortedEvaluationLayer::Prepare() {
  if (Current()) return Status::OK();
  if (step_ <= 0.0) {
    return Status::InvalidArgument("cell-sorted layer requires a positive step");
  }
  Stopwatch prepare_sw;
  // A growth rebuild drops the stale layout before building the new one, so
  // the two never coexist.
  prepared_ = false;
  matrix_ = NeededMatrix{};
  cell_keys_.clear();
  cell_offsets_.clear();
  cell_states_.clear();
  NeededMatrix raw;
  ACQ_RETURN_IF_ERROR(BuildNeededMatrix(*task_, pool_, &raw));
  CellSortedLayout layout;
  ACQ_RETURN_IF_ERROR(
      BuildCellSortedLayout(raw, step_, *task_->agg.ops, pool_, &layout));
  prepared_rows_ = raw.rows;
  unreachable_rows_ = layout.unreachable_rows;
  matrix_ = std::move(layout.matrix);
  cell_keys_ = std::move(layout.cell_keys);
  cell_offsets_ = std::move(layout.cell_offsets);
  cell_states_ = std::move(layout.cell_states);
  // Retained footprint only (the raw matrix and sort scratch are freed on
  // return): sorted matrix, CSR keys/offsets, per-cell states.
  ChargePrepared((matrix_.needed.size() + matrix_.agg_values.size()) *
                     sizeof(double) +
                 cell_keys_.size() * sizeof(int32_t) +
                 cell_offsets_.size() * sizeof(uint32_t) +
                 cell_states_.size() * sizeof(AggregateOps::State));
  prepare_ms_ += prepare_sw.ElapsedMillis();
  prepared_ = true;
  return Status::OK();
}

size_t CellSortedEvaluationLayer::LowerBoundCell(const int32_t* key) const {
  const size_t d = task_->d();
  size_t lo = 0;
  size_t hi = num_cells();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const int32_t* cell = cell_keys_.data() + mid * d;
    if (std::lexicographical_compare(cell, cell + d, key, key + d)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t CellSortedEvaluationLayer::GallopLowerBound(size_t from,
                                                   const int32_t* key) const {
  const size_t d = task_->d();
  const size_t m = num_cells();
  auto less = [&](size_t s) {
    const int32_t* cell = cell_keys_.data() + s * d;
    return std::lexicographical_compare(cell, cell + d, key, key + d);
  };
  if (from >= m || !less(from)) return from;
  // Exponential probe: bracket the answer in (from + step/2, from + step].
  size_t step = 1;
  size_t lo = from;
  while (from + step < m && less(from + step)) {
    lo = from + step;
    step *= 2;
  }
  size_t hi = std::min(from + step, m);
  ++lo;  // cells at or before `lo` all compare less
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (less(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<std::vector<AggregateOps::State>>
CellSortedEvaluationLayer::EvaluateCells(const GridCoord* coords, size_t count,
                                         double step) {
  ACQ_RETURN_IF_ERROR(Prepare());
  // A foreign step means the requested cells are not this layout's cells;
  // the generic path decomposes them into box queries as usual. The
  // failpoint injects the same (bit-identical) fallback on native batches.
  if (step != step_ || ACQ_FAILPOINT("index.batch_eval")) {
    return EvaluationLayer::EvaluateCells(coords, count, step);
  }
  const size_t d = task_->d();
  const AggregateOps& ops = *task_->agg.ops;
  std::vector<AggregateOps::State> states(count);
  if (count == 0) return states;
  for (size_t q = 0; q < count; ++q) {
    if (coords[q].size() != d) {
      return Status::InvalidArgument(
          StringFormat("cell coordinate has %zu levels, task has %zu "
                       "dimensions", coords[q].size(), d));
    }
  }
  stats_.queries.fetch_add(count, std::memory_order_relaxed);
  stats_.tuples_scanned.fetch_add(count, std::memory_order_relaxed);

  // Answer the whole batch in merged sweeps: visit the requests in sorted
  // key order, advancing a cursor over the sorted CSR keys with galloping
  // lower bounds (never rewinding, never restarting the binary search from
  // the top). Large batches split into deterministic contiguous chunks of
  // the sorted order across the pool — each chunk sweeps independently with
  // its own cursor, and every answer is a copy of the per-cell fold from
  // Prepare(), so the result is bit-identical to a single sweep.
  std::vector<uint32_t> req(count);
  std::iota(req.begin(), req.end(), 0u);
  // BFS layers arrive in descending key order (canonical-predecessor
  // enumeration), so detect the two already-sorted cases in O(count * d)
  // before paying for a comparison sort.
  bool ascending = true;
  bool descending = true;
  for (size_t q = 1; q < count && (ascending || descending); ++q) {
    if (coords[q - 1] < coords[q]) {
      descending = false;
    } else if (coords[q] < coords[q - 1]) {
      ascending = false;
    }
  }
  if (descending && !ascending) {
    std::reverse(req.begin(), req.end());
  } else if (!ascending) {
    std::sort(req.begin(), req.end(), [&](uint32_t a, uint32_t b) {
      return coords[a] < coords[b];
    });
  }
  const size_t m = num_cells();
  auto sweep = [&](size_t, size_t begin, size_t end) {
    if (begin >= end) return;
    // Seed this worker's cursor at its own slice of the key array with one
    // binary search, instead of galloping across the whole prefix that
    // earlier chunks own.
    size_t cursor =
        begin == 0 ? 0 : LowerBoundCell(coords[req[begin]].data());
    const int32_t* prev_key = nullptr;
    uint32_t prev_qi = 0;
    for (size_t r = begin; r < end; ++r) {
      const uint32_t qi = req[r];
      const int32_t* key = coords[qi].data();
      if (prev_key != nullptr && std::equal(key, key + d, prev_key)) {
        // Duplicate request: reuse the previous answer.
        states[qi] = states[prev_qi];
      } else {
        cursor = GallopLowerBound(cursor, key);
        if (cursor < m &&
            std::equal(key, key + d, cell_keys_.data() + cursor * d)) {
          states[qi] = cell_states_[cursor];
        } else {
          states[qi] = ops.Init();
        }
        prev_key = key;
      }
      prev_qi = qi;
    }
  };
  // A single-worker pool would still split the sweep in two and pay the
  // queue hand-off for no concurrency; one full sweep is strictly cheaper.
  if (pool_->num_threads() > 1) {
    pool_->ParallelFor(count, /*min_chunk=*/128, sweep);
  } else {
    sweep(0, 0, count);
  }
  return states;
}

bool CellSortedEvaluationLayer::IsCellAligned(
    const std::vector<PScoreRange>& box, GridCoord* coord) const {
  std::vector<int64_t> lo, hi;
  if (!AlignedLevelBounds(box, step_, &lo, &hi)) return false;
  coord->resize(box.size());
  for (size_t i = 0; i < box.size(); ++i) {
    if (lo[i] != hi[i]) return false;
    (*coord)[i] = static_cast<int32_t>(hi[i]);
  }
  return true;
}

Result<AggregateOps::State> CellSortedEvaluationLayer::EvaluateBox(
    const std::vector<PScoreRange>& box) {
  ACQ_RETURN_IF_ERROR(Prepare());
  ACQ_RETURN_IF_ERROR(CheckBox(box));
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const AggregateOps& ops = *task_->agg.ops;
  const size_t d = task_->d();
  const size_t m = num_cells();

  std::vector<int64_t> lo_level, hi_level;
  if (AlignedLevelBounds(box, step_, &lo_level, &hi_level)) {
    // Clamp to int32 key space (coordinates were stored as int32).
    std::vector<int32_t> lo32(d), hi32(d);
    bool single_cell = true;
    for (size_t i = 0; i < d; ++i) {
      lo32[i] = static_cast<int32_t>(
          std::min<int64_t>(lo_level[i], INT32_MAX));
      hi32[i] = static_cast<int32_t>(
          std::min<int64_t>(hi_level[i], INT32_MAX));
      single_cell &= lo_level[i] == hi_level[i];
    }
    if (single_cell) {
      // One binary search; the payload fold happened once in Prepare().
      stats_.tuples_scanned.fetch_add(1, std::memory_order_relaxed);
      const size_t s = LowerBoundCell(lo32.data());
      if (s < m &&
          std::equal(lo32.begin(), lo32.end(), cell_keys_.data() + s * d)) {
        return cell_states_[s];
      }
      return ops.Init();
    }
    // Aligned box: only the sorted key range whose leading coordinate lies
    // in [lo, hi] can intersect the box; walk it, filtering the remaining
    // dimensions and merging per-cell states in key order (deterministic).
    std::vector<int32_t> first(d, 0);
    first[0] = lo32[0];  // smallest possible key in range
    AggregateOps::State state = ops.Init();
    uint64_t cells_walked = 0;
    for (size_t s = LowerBoundCell(first.data()); s < m; ++s) {
      const int32_t* cell = cell_keys_.data() + s * d;
      if (cell[0] > hi32[0]) break;
      ++cells_walked;
      bool inside = cell[0] >= lo32[0];
      for (size_t i = 1; inside && i < d; ++i) {
        inside = cell[i] >= lo32[i] && cell[i] <= hi32[i];
      }
      if (inside) ops.Merge(&state, cell_states_[s]);
    }
    stats_.tuples_scanned.fetch_add(cells_walked, std::memory_order_relaxed);
    return state;
  }

  // Off-grid box: branchless kernel scan over the permuted matrix, chunked
  // across the persistent pool when large enough to pay off.
  stats_.tuples_scanned.fetch_add(matrix_.rows, std::memory_order_relaxed);
  return ScanBoxOverMatrix(ops, matrix_, box, pool_);
}

}  // namespace acquire
