#ifndef ACQUIRE_EXEC_PARALLEL_EVALUATION_H_
#define ACQUIRE_EXEC_PARALLEL_EVALUATION_H_

#include <cstddef>
#include <vector>

#include "exec/evaluation.h"
#include "exec/thread_pool.h"

namespace acquire {

/// Materialized-scan evaluation layer: Prepare() builds the per-tuple
/// refinement-distance matrix once, and every box query runs the shared
/// branchless kernel (ScanBoxOverMatrix) over it.
///
/// With `pool` = nullptr the scan is serial: the bit-exact reference the
/// tests and examples compare indexed layers against. Concurrent
/// EvaluateBoxes fan-out is allowed then, since each call only reads the
/// matrix. With a pool, Prepare() builds the matrix in parallel and every
/// box query is folded over row chunks on it, with the per-chunk partial
/// states merged in chunk order. The merge is correct for exactly the
/// aggregates ACQUIRE admits — Section 2.6's optimal substructure property
/// is also what makes the evaluation embarrassingly parallel — and the
/// fixed chunking + merge order keeps results deterministic.
///
/// Rows appended to the task's relation after Prepare() are picked up by a
/// rebuild at the next EvaluateBox (see EvaluationLayer's growth rule).
class ParallelEvaluationLayer final : public EvaluationLayer {
 public:
  /// `pool` must outlive the layer; nullptr scans serially.
  ParallelEvaluationLayer(const AcqTask* task, ThreadPool* pool);

  /// Builds the matrix; a no-op while it covers every relation row.
  Status Prepare() override;

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override;

  /// The serial scan only reads the matrix once it is current; the pooled
  /// scan already occupies the pool, so it is never fanned out.
  bool SupportsConcurrentEvaluate() const override {
    return pool_ == nullptr && Current();
  }

 private:
  bool Current() const {
    return prepared_ && task_->relation->num_rows() == prepared_rows_;
  }

  ThreadPool* pool_;
  bool prepared_ = false;
  size_t prepared_rows_ = 0;  // relation rows the matrix covers
  NeededMatrix matrix_;
};

}  // namespace acquire

#endif  // ACQUIRE_EXEC_PARALLEL_EVALUATION_H_
