#include "exec/parallel_evaluation.h"

#include "common/stopwatch.h"
#include "exec/eval_kernel.h"

namespace acquire {

ParallelEvaluationLayer::ParallelEvaluationLayer(const AcqTask* task,
                                                 ThreadPool* pool)
    : EvaluationLayer(task), pool_(pool) {}

Status ParallelEvaluationLayer::Prepare() {
  if (Current()) return Status::OK();
  Stopwatch prepare_sw;
  prepared_ = false;
  matrix_ = NeededMatrix{};
  ACQ_RETURN_IF_ERROR(BuildNeededMatrix(*task_, pool_, &matrix_));
  ChargePrepared((matrix_.needed.size() + matrix_.agg_values.size()) *
                 sizeof(double));
  prepared_rows_ = matrix_.rows;
  prepared_ = true;
  prepare_ms_ += prepare_sw.ElapsedMillis();
  return Status::OK();
}

Result<AggregateOps::State> ParallelEvaluationLayer::EvaluateBox(
    const std::vector<PScoreRange>& box) {
  ACQ_RETURN_IF_ERROR(Prepare());
  ACQ_RETURN_IF_ERROR(CheckBox(box));
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  stats_.tuples_scanned.fetch_add(matrix_.rows, std::memory_order_relaxed);
  return ScanBoxOverMatrix(*task_->agg.ops, matrix_, box, pool_);
}

}  // namespace acquire
