#include "index/cell_sorted.h"

#include <algorithm>
#include <cstring>
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
  if (prepared_) return Status::OK();
  if (step_ <= 0.0) {
    return Status::InvalidArgument("cell-sorted layer requires a positive step");
  }
  Stopwatch prepare_sw;
  // Snapshot the row count first: rows appended between here and the first
  // evaluate call are picked up by the delta sync, never double-counted.
  const size_t relation_rows = task_->relation->num_rows();
  NeededMatrix raw;
  ACQ_RETURN_IF_ERROR(BuildNeededMatrix(*task_, pool_, &raw));
  CellSortedLayout layout;
  ACQ_RETURN_IF_ERROR(
      BuildCellSortedLayout(raw, step_, *task_->agg.ops, pool_, &layout));
  unreachable_rows_ = layout.unreachable_rows;
  matrix_ = std::move(layout.matrix);
  cell_keys_ = std::move(layout.cell_keys);
  cell_offsets_ = std::move(layout.cell_offsets);
  cell_states_ = std::move(layout.cell_states);
  consumed_rows_ = relation_rows;
  // Retained footprint only (the raw matrix and sort scratch are freed on
  // return): sorted matrix, CSR keys/offsets, per-cell states.
  ChargeBudget((matrix_.needed.size() + matrix_.agg_values.size()) *
                   sizeof(double) +
               cell_keys_.size() * sizeof(int32_t) +
               cell_offsets_.size() * sizeof(uint32_t) +
               cell_states_.size() * sizeof(AggregateOps::State));
  prepare_ms_ += prepare_sw.ElapsedMillis();
  prepared_ = true;
  return Status::OK();
}

size_t CellSortedEvaluationLayer::delta_merge_threshold() const {
  if (delta_merge_threshold_ != 0) return delta_merge_threshold_;
  return std::max<size_t>(4096, matrix_.rows / 8);
}

Status CellSortedEvaluationLayer::StageNewRows() {
  const size_t relation_rows = task_->relation->num_rows();
  if (relation_rows <= consumed_rows_) return Status::OK();
  const size_t d = task_->d();
  // The appended rows' needed values are bit-identical to the rows a full
  // rebuild would compute (BuildNeededMatrixRows re-runs PrecomputeNeeded,
  // so value-memoizing dimensions see the new rows too).
  NeededMatrix fresh;
  ACQ_RETURN_IF_ERROR(BuildNeededMatrixRows(*task_, consumed_rows_,
                                            relation_rows, /*pool=*/nullptr,
                                            &fresh));
  size_t appended = 0;
  for (size_t row = 0; row < fresh.rows; ++row) {
    bool reachable = true;
    for (size_t i = 0; i < d; ++i) {
      reachable &= PScoreLevel(fresh.dim(i)[row], step_) >= 0;
    }
    if (!reachable) {
      ++unreachable_rows_;
      continue;
    }
    for (size_t i = 0; i < d; ++i) {
      delta_needed_.push_back(fresh.dim(i)[row]);
    }
    delta_agg_.push_back(fresh.agg_values[row]);
    ++appended;
  }
  consumed_rows_ = relation_rows;

  // Rebuild the sorted CSR view over the whole buffer with the prepare's
  // stable sort: rows of one cell stay in append order, which is what makes
  // the per-cell fold continuation identical to a rebuild.
  const size_t k = delta_agg_.size();
  const NeededView staged{delta_needed_.data(), d, d, 1};
  delta_order_.resize(k);
  std::iota(delta_order_.begin(), delta_order_.end(), 0u);
  StableSortByLevels(staged, step_, pool_, &delta_order_,
                     &delta_cell_offsets_);
  const size_t dm = delta_num_cells();
  delta_cell_keys_.resize(dm * d);
  for (size_t t = 0; t < dm; ++t) {
    const size_t row = delta_order_[delta_cell_offsets_[t]];
    for (size_t i = 0; i < d; ++i) {
      delta_cell_keys_[t * d + i] =
          static_cast<int32_t>(PScoreLevel(staged.at(row, i), step_));
    }
  }
  delta_rows_ = k;
  ChargeBudget(appended * ((d + 1) * sizeof(double) + sizeof(uint32_t)));
  return Status::OK();
}

Status CellSortedEvaluationLayer::SyncDeltas() {
  ACQ_RETURN_IF_ERROR(StageNewRows());
  if (staged_delta_rows() >= delta_merge_threshold()) {
    return AbsorbStagedDeltas();
  }
  return Status::OK();
}

Status CellSortedEvaluationLayer::MergeDeltas() {
  if (!prepared_) return Prepare();
  ACQ_RETURN_IF_ERROR(StageNewRows());
  return AbsorbStagedDeltas();
}

void CellSortedEvaluationLayer::ClearDeltaBuffer() {
  delta_needed_.clear();
  delta_agg_.clear();
  delta_order_.clear();
  delta_cell_keys_.clear();
  delta_cell_offsets_.clear();
  delta_rows_ = 0;
}

Status CellSortedEvaluationLayer::AbsorbStagedDeltas() {
  const size_t k = delta_agg_.size();
  if (k == 0) return Status::OK();
  ++delta_merges_;
  if (ACQ_FAILPOINT("index.delta_merge")) {
    // Result-preserving fault: fall back to the O(n log n) full rebuild the
    // incremental merge exists to avoid. The layout is canonical, so the
    // rebuild produces the exact bytes the merge would have.
    prepared_ = false;
    unreachable_rows_ = 0;
    consumed_rows_ = 0;
    matrix_ = NeededMatrix{};
    cell_keys_.clear();
    cell_offsets_.clear();
    cell_states_.clear();
    ClearDeltaBuffer();
    return Prepare();
  }
  Stopwatch merge_sw;
  const size_t d = task_->d();
  const size_t m = num_cells();
  const size_t dm = delta_num_cells();
  const AggregateOps& ops = *task_->agg.ops;

  NeededMatrix merged;
  merged.rows = matrix_.rows + k;
  merged.dims = d;
  merged.needed.resize(merged.rows * d);
  merged.agg_values.resize(merged.rows);
  std::vector<int32_t> keys;
  keys.reserve((m + dm) * d);
  std::vector<uint32_t> offsets;
  offsets.reserve(m + dm + 1);
  offsets.push_back(0);
  std::vector<AggregateOps::State> states;
  states.reserve(m + dm);

  uint32_t out_pos = 0;
  auto copy_base_cell = [&](size_t s) {
    const uint32_t begin = cell_offsets_[s];
    const uint32_t count = cell_offsets_[s + 1] - begin;
    for (size_t i = 0; i < d; ++i) {
      std::memcpy(merged.mutable_dim(i) + out_pos, matrix_.dim(i) + begin,
                  count * sizeof(double));
    }
    std::memcpy(merged.agg_values.data() + out_pos,
                matrix_.agg_values.data() + begin, count * sizeof(double));
    out_pos += count;
  };
  // Copies staged cell `t`'s rows (append order) and, when `state` is
  // given, continues it with their Adds — the rebuild's exact fold order.
  auto copy_delta_cell = [&](size_t t, AggregateOps::State* state) {
    for (uint32_t r = delta_cell_offsets_[t]; r < delta_cell_offsets_[t + 1];
         ++r) {
      const uint32_t row = delta_order_[r];
      for (size_t i = 0; i < d; ++i) {
        merged.mutable_dim(i)[out_pos] = delta_needed_[row * d + i];
      }
      merged.agg_values[out_pos] = delta_agg_[row];
      if (state != nullptr) ops.Add(state, delta_agg_[row]);
      ++out_pos;
    }
  };

  size_t s = 0;
  size_t t = 0;
  while (s < m || t < dm) {
    int cmp;
    if (s == m) {
      cmp = 1;
    } else if (t == dm) {
      cmp = -1;
    } else {
      const int32_t* ka = cell_keys_.data() + s * d;
      const int32_t* kb = delta_cell_keys_.data() + t * d;
      cmp = std::lexicographical_compare(ka, ka + d, kb, kb + d)    ? -1
            : std::lexicographical_compare(kb, kb + d, ka, ka + d) ? 1
                                                                   : 0;
    }
    if (cmp <= 0) {
      keys.insert(keys.end(), cell_keys_.begin() + s * d,
                  cell_keys_.begin() + (s + 1) * d);
      copy_base_cell(s);
      AggregateOps::State state = std::move(cell_states_[s]);
      if (cmp == 0) copy_delta_cell(t++, &state);
      states.push_back(std::move(state));
      ++s;
    } else {
      keys.insert(keys.end(), delta_cell_keys_.begin() + t * d,
                  delta_cell_keys_.begin() + (t + 1) * d);
      AggregateOps::State state = ops.Init();
      copy_delta_cell(t++, &state);
      states.push_back(std::move(state));
    }
    offsets.push_back(out_pos);
  }

  const size_t old_cells = m;
  matrix_ = std::move(merged);
  cell_keys_ = std::move(keys);
  cell_offsets_ = std::move(offsets);
  cell_states_ = std::move(states);
  ClearDeltaBuffer();
  // The row payload was charged at staging time; only the CSR growth from
  // brand-new cells is charged here.
  const size_t new_cells = num_cells();
  if (new_cells > old_cells) {
    ChargeBudget((new_cells - old_cells) *
                 (d * sizeof(int32_t) + sizeof(uint32_t) +
                  sizeof(AggregateOps::State)));
  }
  prepare_ms_ += merge_sw.ElapsedMillis();
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

size_t CellSortedEvaluationLayer::LowerBoundDeltaCell(
    const int32_t* key) const {
  const size_t d = task_->d();
  size_t lo = 0;
  size_t hi = delta_num_cells();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const int32_t* cell = delta_cell_keys_.data() + mid * d;
    if (std::lexicographical_compare(cell, cell + d, key, key + d)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void CellSortedEvaluationLayer::FoldDeltaCellAt(
    size_t t, AggregateOps::State* state) const {
  const AggregateOps& ops = *task_->agg.ops;
  for (uint32_t r = delta_cell_offsets_[t]; r < delta_cell_offsets_[t + 1];
       ++r) {
    ops.Add(state, delta_agg_[delta_order_[r]]);
  }
}

void CellSortedEvaluationLayer::FoldDeltaCell(
    const int32_t* key, AggregateOps::State* state) const {
  const size_t dm = delta_num_cells();
  if (dm == 0) return;
  const size_t d = task_->d();
  const size_t t = LowerBoundDeltaCell(key);
  if (t < dm &&
      std::equal(key, key + d, delta_cell_keys_.data() + t * d)) {
    FoldDeltaCellAt(t, state);
  }
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
  if (!prepared_) ACQ_RETURN_IF_ERROR(Prepare());
  ACQ_RETURN_IF_ERROR(SyncDeltas());
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
  // Prepare() (continued with the cell's staged delta rows in append order,
  // exactly as a rebuild would fold them), so the result is bit-identical
  // to a single sweep over a freshly rebuilt layout.
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
  const bool have_deltas = delta_num_cells() > 0;
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
        if (have_deltas) FoldDeltaCell(key, &states[qi]);
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
  if (!prepared_) ACQ_RETURN_IF_ERROR(Prepare());
  ACQ_RETURN_IF_ERROR(SyncDeltas());
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
      AggregateOps::State state;
      if (s < m &&
          std::equal(lo32.begin(), lo32.end(), cell_keys_.data() + s * d)) {
        state = cell_states_[s];
      } else {
        state = ops.Init();
      }
      FoldDeltaCell(lo32.data(), &state);
      return state;
    }
    // Aligned box: only the sorted key range whose leading coordinate lies
    // in [lo, hi] can intersect the box; walk it, filtering the remaining
    // dimensions and merging per-cell states in key order (deterministic).
    // With staged deltas the walk is a two-cursor merge over the main and
    // delta key arrays — the union in sorted order is exactly the rebuilt
    // layout's key order, and each cell's effective state (base fold
    // continued with its delta rows) is exactly the rebuilt cell state, so
    // the merge sequence matches a rebuild bit for bit.
    std::vector<int32_t> first(d, 0);
    first[0] = lo32[0];  // smallest possible key in range
    AggregateOps::State state = ops.Init();
    uint64_t cells_walked = 0;
    const size_t dm = delta_num_cells();
    size_t s = LowerBoundCell(first.data());
    size_t t = dm == 0 ? 0 : LowerBoundDeltaCell(first.data());
    auto inside_box = [&](const int32_t* cell) {
      bool inside = cell[0] >= lo32[0];
      for (size_t i = 1; inside && i < d; ++i) {
        inside = cell[i] >= lo32[i] && cell[i] <= hi32[i];
      }
      return inside;
    };
    while (s < m || t < dm) {
      int cmp;
      if (s == m) {
        cmp = 1;
      } else if (t == dm) {
        cmp = -1;
      } else {
        const int32_t* ka = cell_keys_.data() + s * d;
        const int32_t* kb = delta_cell_keys_.data() + t * d;
        cmp = std::lexicographical_compare(ka, ka + d, kb, kb + d)    ? -1
              : std::lexicographical_compare(kb, kb + d, ka, ka + d) ? 1
                                                                     : 0;
      }
      const int32_t* cell = cmp <= 0 ? cell_keys_.data() + s * d
                                     : delta_cell_keys_.data() + t * d;
      if (cell[0] > hi32[0]) break;
      ++cells_walked;
      if (inside_box(cell)) {
        if (cmp < 0) {
          ops.Merge(&state, cell_states_[s]);
        } else {
          AggregateOps::State cell_state =
              cmp == 0 ? cell_states_[s] : ops.Init();
          FoldDeltaCellAt(t, &cell_state);
          ops.Merge(&state, cell_state);
        }
      }
      if (cmp <= 0) ++s;
      if (cmp >= 0) ++t;
    }
    stats_.tuples_scanned.fetch_add(cells_walked, std::memory_order_relaxed);
    return state;
  }

  // Off-grid box: branchless kernel scan over the permuted matrix, chunked
  // across the persistent pool when large enough to pay off. The scan (and
  // its deterministic chunk merge) must run over exactly the layout a full
  // rebuild would produce, so staged rows are absorbed first.
  if (staged_delta_rows() > 0) {
    ACQ_RETURN_IF_ERROR(AbsorbStagedDeltas());
  }
  stats_.tuples_scanned.fetch_add(matrix_.rows, std::memory_order_relaxed);
  return ScanBoxOverMatrix(ops, matrix_, box, pool_);
}

}  // namespace acquire
