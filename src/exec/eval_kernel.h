#ifndef ACQUIRE_EXEC_EVAL_KERNEL_H_
#define ACQUIRE_EXEC_EVAL_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/acq_task.h"
#include "exec/evaluation.h"
#include "exec/thread_pool.h"

namespace acquire {

/// Builds the matrix for `task` in one pass over the relation. With a pool
/// the row range is built in parallel; each dimension's internal
/// memoization is pre-resolved first (RefinementDim::PrecomputeNeeded), so
/// the concurrent NeededPScore calls are read-only.
Status BuildNeededMatrix(const AcqTask& task, ThreadPool* pool,
                         NeededMatrix* out);

/// The one branchless predicate kernel behind every scanning layer.
/// Narrows a selection vector by one dimension: select[k] &= range admits
/// needed[k]. Callers start from an all-ones vector and apply each
/// dimension's stream in turn.
inline void RefineSelection(const double* needed, size_t count,
                            const PScoreRange& range, uint8_t* select) {
  const double lo = range.lo;
  const double hi = range.hi;
  for (size_t k = 0; k < count; ++k) {
    select[k] &= static_cast<uint8_t>((needed[k] > lo) & (needed[k] <= hi));
  }
}

/// Folds the selected rows' aggregate inputs into `state`.
inline void FoldSelected(const AggregateOps& ops, const double* values,
                         const uint8_t* select, size_t count,
                         AggregateOps::State* state) {
  for (size_t k = 0; k < count; ++k) {
    if (select[k]) ops.Add(state, values[k]);
  }
}

/// Folds a contiguous run of rows unconditionally (the cell-sorted layout
/// turns a cell query into exactly this).
inline void FoldRange(const AggregateOps& ops, const double* values,
                      size_t count, AggregateOps::State* state) {
  for (size_t k = 0; k < count; ++k) ops.Add(state, values[k]);
}

/// Evaluates one box query over rows [begin, end) of the matrix (serial;
/// scratch must hold at least end - begin bytes).
AggregateOps::State ScanBoxRange(const AggregateOps& ops,
                                 const NeededMatrix& matrix,
                                 const std::vector<PScoreRange>& box,
                                 size_t begin, size_t end, uint8_t* scratch);

/// Evaluates one box query over the whole matrix. With a pool (and enough
/// rows to amortize it) the scan is chunked across the pool and the
/// per-chunk partial states are merged in chunk order — deterministic
/// results for a fixed pool size (the OSP merge is what makes the
/// parallelization valid at all; Section 2.6).
Result<AggregateOps::State> ScanBoxOverMatrix(
    const AggregateOps& ops, const NeededMatrix& matrix,
    const std::vector<PScoreRange>& box, ThreadPool* pool = nullptr);

}  // namespace acquire

#endif  // ACQUIRE_EXEC_EVAL_KERNEL_H_
