#ifndef ACQUIRE_INDEX_BACKEND_FACTORY_H_
#define ACQUIRE_INDEX_BACKEND_FACTORY_H_

#include <memory>

#include "common/result.h"
#include "exec/backend.h"
#include "exec/evaluation.h"

namespace acquire {

/// Knobs the factory forwards to the backends that take them.
struct BackendOptions {
  /// Refined-space grid step for the cell-sorted backend. <= 0 picks
  /// 10.0 / d — the step AcquireOptions' default gamma induces, so the
  /// aligned fast paths fire for default-driver runs.
  double grid_step = 0.0;
};

/// Constructs the evaluation layer for `backend` over `task` (which must
/// outlive the returned layer). kAuto resolves to the cell-sorted backend:
/// the grid queries Algorithm 3 issues are exactly what its CSR layout
/// answers in O(log cells). The layer is returned unprepared.
Result<std::unique_ptr<EvaluationLayer>> MakeEvaluationLayer(
    const AcqTask* task, EvalBackend backend,
    const BackendOptions& options = {});

}  // namespace acquire

#endif  // ACQUIRE_INDEX_BACKEND_FACTORY_H_
