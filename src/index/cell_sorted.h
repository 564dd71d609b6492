#ifndef ACQUIRE_INDEX_CELL_SORTED_H_
#define ACQUIRE_INDEX_CELL_SORTED_H_

#include <cstdint>
#include <vector>

#include "exec/evaluation.h"
#include "exec/thread_pool.h"
#include "index/parallel_prepare.h"

namespace acquire {

/// Cell-sorted columnar evaluation backend: the needed-PScore matrix is
/// built once (in parallel, dimension-major) and its rows are
/// counting-sorted into refined-space grid cells in a CSR layout —
///
///   cell_keys_    m x d grid coordinates, lexicographically sorted
///   cell_offsets_ m + 1 prefix offsets into the permuted row payload
///   matrix_       needed matrix + aggregate inputs, permuted to cell order
///   cell_states_  per-cell OSP aggregate state (fold of its offset range)
///
/// so the queries Algorithm 3 actually issues are no longer scans:
///  * a cell query is one binary search over the sorted keys plus a
///    precomputed state (O(log m)),
///  * a grid-aligned box query walks only the key range whose first
///    coordinate overlaps the box, merging per-cell states in sorted key
///    order (deterministic), instead of visiting every populated cell,
///  * an off-grid box (repartition probes) falls back to the shared
///    branchless kernel over the permuted matrix, chunked across the
///    persistent thread pool.
///
/// The layout build itself is delegated to BuildCellSortedLayout
/// (index/parallel_prepare.h): one stable radix sort of the rows by grid
/// levels, run in chunks on the pool, whose output is the canonical layout
/// whatever the pool width.
///
/// Rows appended to the task's relation after Prepare() are picked up by a
/// rebuild at the next EvaluateBox / EvaluateCells entry (see
/// EvaluationLayer's growth rule); the layout is canonical, so the rebuilt
/// layer answers exactly as a freshly built one.
///
/// `step` must match the refined space's grid step (gamma / d) for the
/// aligned fast paths to fire; any other step is still correct, just slow.
class CellSortedEvaluationLayer final : public EvaluationLayer {
 public:
  /// `pool` = nullptr uses the process-wide shared pool.
  CellSortedEvaluationLayer(const AcqTask* task, double step,
                            ThreadPool* pool = nullptr);

  /// Builds the matrix and the CSR cell layout in one preparation pass; a
  /// no-op while the layout covers every relation row.
  Status Prepare() override;

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override;

  /// Native batched cell queries: the requested coordinates are sorted and
  /// answered in forward sweeps over the sorted CSR key array — a
  /// binary-search start, then galloping advances, so a layer of k cells
  /// costs O(k log(m/k)) key comparisons instead of k independent O(log m)
  /// searches. Large batches sweep deterministic contiguous chunks of the
  /// sorted order in parallel on the pool (bit-identical results; every
  /// answer is a copy of the precomputed per-cell state). Falls back to the
  /// generic path when `step` differs from the layout step.
  Result<std::vector<AggregateOps::State>> EvaluateCells(
      const GridCoord* coords, size_t count, double step) override;

  /// CSR layout, key array and per-cell states are read-only once built
  /// over every relation row.
  bool SupportsConcurrentEvaluate() const override { return Current(); }

  double step() const { return step_; }
  size_t num_cells() const { return cell_offsets_.empty()
                                 ? 0
                                 : cell_offsets_.size() - 1; }
  /// Rows excluded from the layout because some dimension can never admit
  /// them (needed == inf admits no box).
  size_t unreachable_rows() const { return unreachable_rows_; }

  /// True when every range in `box` is exactly one grid cell at this
  /// layer's step (exposed for tests).
  bool IsCellAligned(const std::vector<PScoreRange>& box,
                     GridCoord* coord) const;

 private:
  bool Current() const {
    return prepared_ && task_->relation->num_rows() == prepared_rows_;
  }

  /// Index of the first cell whose key is lexicographically >= `key`
  /// (d() leading entries used); num_cells() when none.
  size_t LowerBoundCell(const int32_t* key) const;

  /// LowerBoundCell restricted to [from, num_cells()): gallops forward from
  /// `from` (exponential probe, then binary search in the bracket), so a
  /// run of nearby lookups in sorted order costs O(log gap) each.
  size_t GallopLowerBound(size_t from, const int32_t* key) const;

  double step_;
  ThreadPool* pool_;
  bool prepared_ = false;
  size_t unreachable_rows_ = 0;
  size_t prepared_rows_ = 0;            // relation rows the layout covers
  NeededMatrix matrix_;                 // permuted to cell order
  std::vector<int32_t> cell_keys_;      // m * d, cell-major, sorted
  std::vector<uint32_t> cell_offsets_;  // m + 1
  std::vector<AggregateOps::State> cell_states_;
};

}  // namespace acquire

#endif  // ACQUIRE_INDEX_CELL_SORTED_H_
