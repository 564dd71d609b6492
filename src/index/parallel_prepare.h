#ifndef ACQUIRE_INDEX_PARALLEL_PREPARE_H_
#define ACQUIRE_INDEX_PARALLEL_PREPARE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/acq_task.h"
#include "exec/evaluation.h"
#include "exec/thread_pool.h"

namespace acquire {

/// The cell-sorted CSR layout (see index/cell_sorted.h for field semantics),
/// kept apart from the layer so the build, the tests and the benches can
/// all produce and compare the same structure.
///
/// The layout is canonical: cells sorted lexicographically, each cell's
/// payload rows in relation order, per-cell states folded in payload order.
/// Any correct build produces it byte for byte.
struct CellSortedLayout {
  size_t unreachable_rows = 0;
  NeededMatrix matrix;                 // permuted to cell order
  std::vector<int32_t> cell_keys;      // m * d, cell-major, sorted
  std::vector<uint32_t> cell_offsets;  // m + 1
  std::vector<AggregateOps::State> cell_states;

  size_t num_cells() const {
    return cell_offsets.empty() ? 0 : cell_offsets.size() - 1;
  }
};

/// Needed PScores under arbitrary strides: row r's value on dimension i is
/// data[r * row_stride + i * dim_stride]. Views a dimension-major
/// NeededMatrix (row_stride 1) as well as a row-major buffer (dim_stride 1).
struct NeededView {
  const double* data = nullptr;
  size_t dims = 0;
  size_t row_stride = 0;
  size_t dim_stride = 0;

  double at(size_t row, size_t i) const {
    return data[row * row_stride + i * dim_stride];
  }
};

/// Stably sorts `order` (reachable rows of `needed`) by the rows' grid-level
/// tuples at `step` (PScoreLevel, as int32), compared lexicographically,
/// and groups them into cells: rows with equal tuples keep their order in
/// `order`, and `cell_offsets` receives the sorted position where each
/// tuple's run starts, followed by order->size().
///
/// LSD radix sort: each dimension's levels are offset by their minimum and
/// take as many bits as their range needs; adjacent dimensions pack into
/// 64-bit key words, and the words are sorted least significant first, in
/// passes of at most 11-bit digits. A tuple wider than 64 bits takes more
/// words through the same passes. Every pass counts digits per row chunk
/// and scatters by chunk-major prefix sums on `pool` (nullptr = the shared
/// pool), so the result does not depend on the chunking or the pool width.
void StableSortByLevels(const NeededView& needed, double step,
                        ThreadPool* pool, std::vector<uint32_t>* order,
                        std::vector<uint32_t>* cell_offsets);

/// Builds the cell-sorted layout of `raw` (a needed-PScore matrix in
/// relation row order) at grid step `step`, folding per-cell states with
/// `ops`: unreachable rows (needed == inf on some dimension) are dropped,
/// the reachable ones are sorted into cells with StableSortByLevels, the
/// payload is gathered into that order, and each cell's contiguous payload
/// is folded. Levels are recomputed from the needed values wherever a phase
/// needs them rather than kept in a rows x d scratch array, which costs
/// more to allocate and fill than the divisions it saves. Each phase runs
/// in chunks on `pool` (nullptr = the shared pool).
Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, ThreadPool* pool,
                             CellSortedLayout* out);

/// True when two layouts are identical bit for bit (keys, offsets, permuted
/// matrix, states, unreachable count); the oracle of the tests and the
/// prepare bench.
bool LayoutsBitIdentical(const CellSortedLayout& a, const CellSortedLayout& b);

}  // namespace acquire

#endif  // ACQUIRE_INDEX_PARALLEL_PREPARE_H_
