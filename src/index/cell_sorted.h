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
/// Incremental maintenance: rows appended to the task's relation after
/// Prepare() are discovered lazily at the next evaluate call and staged in a
/// sorted delta buffer. Every query path answers base + staged rows exactly
/// as a full rebuild would — per-cell answers continue the base fold with
/// the delta rows' Adds in append order, which is the precise operation
/// sequence a rebuild runs (the counting sort is stable, so a rebuilt cell's
/// payload is its old rows in relation order followed by the appended ones).
/// Once the buffer reaches the merge threshold — or an off-grid probe needs
/// the contiguous permuted matrix — the staged rows are absorbed into the
/// main layout with one O(n + k) two-pointer merge instead of an
/// O(n log n) rebuild.
///
/// `step` must match the refined space's grid step (gamma / d) for the
/// aligned fast paths to fire; any other step is still correct, just slow.
class CellSortedEvaluationLayer final : public EvaluationLayer {
 public:
  /// `pool` = nullptr uses the process-wide shared pool.
  CellSortedEvaluationLayer(const AcqTask* task, double step,
                            ThreadPool* pool = nullptr);

  /// Builds the matrix and the CSR cell layout in one preparation pass.
  Status Prepare() override;

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override;

  /// Native batched cell queries: the requested coordinates are sorted and
  /// answered in forward sweeps over the sorted CSR key array — a
  /// binary-search start, then galloping advances, so a layer of k cells
  /// costs O(k log(m/k)) key comparisons instead of k independent O(log m)
  /// searches. Large batches sweep deterministic contiguous chunks of the
  /// sorted order in parallel on the pool (bit-identical results; every
  /// answer is a copy of the precomputed per-cell state, plus the staged
  /// delta rows of that cell folded in append order). Falls back to the
  /// generic path when `step` differs from the layout step.
  Result<std::vector<AggregateOps::State>> EvaluateCells(
      const GridCoord* coords, size_t count, double step) override;

  /// CSR layout, key array and per-cell states are read-only once built —
  /// but only while no appended rows are pending: staging (and a possible
  /// threshold merge) mutates the layer, so concurrent fan-out is withheld
  /// until the next serial evaluate call has synced the deltas.
  bool SupportsConcurrentEvaluate() const override {
    return prepared_ && delta_agg_.empty() &&
           task_->relation->num_rows() == consumed_rows_;
  }

  double step() const { return step_; }
  size_t num_cells() const { return cell_offsets_.empty()
                                 ? 0
                                 : cell_offsets_.size() - 1; }
  /// Rows excluded from the layout because some dimension can never admit
  /// them (needed == inf admits no box).
  size_t unreachable_rows() const { return unreachable_rows_; }

  /// Relation rows already reflected in the layer (main layout + staged
  /// deltas); rows at or past this index are picked up by the next sync.
  size_t consumed_rows() const { return consumed_rows_; }
  /// Reachable appended rows currently staged in the delta buffer.
  size_t staged_delta_rows() const { return delta_agg_.size(); }

  /// Staged-row count that triggers an automatic merge into the main
  /// layout; 0 restores the default max(4096, layout_rows / 8). Exposed so
  /// tests and the prepare bench can force or forbid merges.
  void set_delta_merge_threshold(size_t threshold) {
    delta_merge_threshold_ = threshold;
  }
  size_t delta_merge_threshold() const;

  /// Stages any unconsumed relation rows, then absorbs every staged row
  /// into the main layout now. The merge is the O(n + k) two-pointer
  /// concatenation described above and produces exactly the layout a full
  /// rebuild would (bit for bit); the `index.delta_merge` failpoint
  /// downgrades it to that full rebuild, which is therefore
  /// result-preserving by the same argument.
  Status MergeDeltas();

  /// True when every range in `box` is exactly one grid cell at this
  /// layer's step (exposed for tests).
  bool IsCellAligned(const std::vector<PScoreRange>& box,
                     GridCoord* coord) const;

 private:
  /// Index of the first cell whose key is lexicographically >= `key`
  /// (d() leading entries used); num_cells() when none.
  size_t LowerBoundCell(const int32_t* key) const;

  /// LowerBoundCell restricted to [from, num_cells()): gallops forward from
  /// `from` (exponential probe, then binary search in the bracket), so a
  /// run of nearby lookups in sorted order costs O(log gap) each.
  size_t GallopLowerBound(size_t from, const int32_t* key) const;

  size_t delta_num_cells() const {
    return delta_cell_offsets_.empty() ? 0 : delta_cell_offsets_.size() - 1;
  }
  /// First staged cell whose key is lexicographically >= `key`.
  size_t LowerBoundDeltaCell(const int32_t* key) const;
  /// Continues `state` with staged cell `t`'s rows in append order.
  void FoldDeltaCellAt(size_t t, AggregateOps::State* state) const;
  /// Continues `state` with the staged rows of cell `key` (no-op when the
  /// cell has none) — the exact Add continuation a full rebuild would run.
  void FoldDeltaCell(const int32_t* key, AggregateOps::State* state) const;

  /// Moves relation rows [consumed_rows_, num_rows()) into the staged delta
  /// buffer and rebuilds its sorted CSR view (StableSortByLevels, the
  /// prepare's sort, over the whole buffer).
  Status StageNewRows();
  /// StageNewRows + threshold-triggered absorb; serial-entry only.
  Status SyncDeltas();
  /// Merges the staged rows into the main layout (or rebuilds from scratch
  /// under the `index.delta_merge` failpoint).
  Status AbsorbStagedDeltas();
  void ClearDeltaBuffer();

  double step_;
  ThreadPool* pool_;
  bool prepared_ = false;
  size_t unreachable_rows_ = 0;
  size_t consumed_rows_ = 0;
  size_t delta_merge_threshold_ = 0;  // 0 = auto
  NeededMatrix matrix_;                 // permuted to cell order
  std::vector<int32_t> cell_keys_;      // m * d, cell-major, sorted
  std::vector<uint32_t> cell_offsets_;  // m + 1
  std::vector<AggregateOps::State> cell_states_;

  // Staged appended rows in append order (row-major; unreachable rows are
  // dropped at staging time) plus a sorted CSR view over them, rebuilt on
  // every sync (k stays small — at most the merge threshold).
  std::vector<double> delta_needed_;   // k * d, row-major
  std::vector<double> delta_agg_;      // k
  std::vector<uint32_t> delta_order_;  // k, stable-sorted by cell key
  std::vector<int32_t> delta_cell_keys_;      // dm * d, sorted
  std::vector<uint32_t> delta_cell_offsets_;  // dm + 1, into delta_order_
};

}  // namespace acquire

#endif  // ACQUIRE_INDEX_CELL_SORTED_H_
