#include "exec/evaluation.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/string_util.h"
#include "exec/eval_kernel.h"
#include "exec/thread_pool.h"

namespace acquire {

namespace {

constexpr double kAlignEps = 1e-9;

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <=
         kAlignEps * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

void ComputeNeeded(const AcqTask& task, size_t row, std::vector<double>* out) {
  out->resize(task.d());
  for (size_t i = 0; i < task.d(); ++i) {
    (*out)[i] = task.dims[i]->NeededPScore(*task.relation, row);
  }
}

PScoreRange CellRangeForLevel(int64_t level, double step) {
  if (level <= 0) return PScoreRange{-1.0, 0.0};
  return PScoreRange{static_cast<double>(level - 1) * step,
                     static_cast<double>(level) * step};
}

int64_t AlignedGridMultiple(double v, double step) {
  if (v < -kAlignEps) return -1;
  double q = v / step;
  int64_t u = static_cast<int64_t>(std::llround(q));
  if (u < 0) return -1;
  return NearlyEqual(static_cast<double>(u) * step, v) ? u : -1;
}

bool AlignedLevelBounds(const std::vector<PScoreRange>& box, double step,
                        std::vector<int64_t>* lo, std::vector<int64_t>* hi) {
  lo->resize(box.size());
  hi->resize(box.size());
  for (size_t i = 0; i < box.size(); ++i) {
    int64_t hi_mult = AlignedGridMultiple(box[i].hi, step);
    if (hi_mult < 0) return false;
    (*hi)[i] = hi_mult;
    if (box[i].lo < 0.0) {
      (*lo)[i] = 0;
    } else {
      int64_t lo_mult = AlignedGridMultiple(box[i].lo, step);
      if (lo_mult < 0 || lo_mult >= hi_mult) return false;
      (*lo)[i] = lo_mult + 1;
    }
  }
  return true;
}

Status EvaluationLayer::CheckBox(const std::vector<PScoreRange>& box) const {
  if (box.size() != task_->d()) {
    return Status::InvalidArgument(
        StringFormat("box has %zu ranges, task has %zu dimensions",
                     box.size(), task_->d()));
  }
  return Status::OK();
}

Result<std::vector<AggregateOps::State>> EvaluationLayer::EvaluateBoxes(
    const std::vector<std::vector<PScoreRange>>& boxes) {
  std::vector<AggregateOps::State> states(boxes.size());
  if (boxes.empty()) return states;
  if (boxes.size() == 1 || !SupportsConcurrentEvaluate()) {
    for (size_t q = 0; q < boxes.size(); ++q) {
      ACQ_ASSIGN_OR_RETURN(states[q], EvaluateBox(boxes[q]));
    }
    return states;
  }
  // Each box is evaluated exactly as in the serial path — only the order
  // the independent calls run in changes, so results stay bit-identical.
  std::mutex mu;
  Status first_error;
  ThreadPool::Shared().ParallelFor(
      boxes.size(), /*min_chunk=*/1,
      [&](size_t, size_t begin, size_t end) {
        for (size_t q = begin; q < end; ++q) {
          auto state = EvaluateBox(boxes[q]);
          if (!state.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            if (first_error.ok()) first_error = state.status();
            return;
          }
          states[q] = std::move(state).value();
        }
      });
  ACQ_RETURN_IF_ERROR(first_error);
  return states;
}

Result<std::vector<AggregateOps::State>> EvaluationLayer::EvaluateCells(
    const GridCoord* coords, size_t count, double step) {
  const size_t d = task_->d();
  std::vector<std::vector<PScoreRange>> boxes(count);
  for (size_t q = 0; q < count; ++q) {
    if (coords[q].size() != d) {
      return Status::InvalidArgument(
          StringFormat("cell coordinate has %zu levels, task has %zu "
                       "dimensions", coords[q].size(), d));
    }
    boxes[q].resize(d);
    for (size_t i = 0; i < d; ++i) {
      boxes[q][i] = CellRangeForLevel(coords[q][i], step);
    }
  }
  return EvaluateBoxes(boxes);
}

Result<double> EvaluationLayer::EvaluateQueryValue(
    const std::vector<double>& pscores) {
  std::vector<PScoreRange> box(pscores.size());
  for (size_t i = 0; i < pscores.size(); ++i) {
    box[i] = PScoreRange{-1.0, pscores[i]};
  }
  ACQ_ASSIGN_OR_RETURN(AggregateOps::State state, EvaluateBox(box));
  return task_->agg.ops->Final(state);
}

Result<AggregateOps::State> DirectEvaluationLayer::EvaluateBox(
    const std::vector<PScoreRange>& box) {
  ACQ_RETURN_IF_ERROR(CheckBox(box));
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const Table& rel = *task_->relation;
  const AggregateOps& ops = *task_->agg.ops;
  const size_t n = rel.num_rows();
  const size_t d = task_->d();
  stats_.tuples_scanned.fetch_add(n, std::memory_order_relaxed);
  // The selection vector and needed/aggregate stream are reallocated per
  // call but bounded by one row-sized pair, so their footprint is charged
  // once, not per query.
  if (!scratch_charged_) {
    scratch_charged_ = true;
    ChargeBudget(n * (sizeof(uint8_t) + sizeof(double)));
  }
  // Same selection kernel as the prepared layers, but the per-dimension
  // needed stream is recomputed on every call — that is this layer's cost
  // model (one full SQL execution per box).
  std::vector<uint8_t> select(n, uint8_t{1});
  std::vector<double> stream(n);
  for (size_t i = 0; i < d; ++i) {
    const RefinementDim& dim = *task_->dims[i];
    for (size_t row = 0; row < n; ++row) {
      stream[row] = dim.NeededPScore(rel, row);
    }
    RefineSelection(stream.data(), n, box[i], select.data());
  }
  for (size_t row = 0; row < n; ++row) {
    stream[row] = task_->AggValue(row);
  }
  AggregateOps::State state = ops.Init();
  FoldSelected(ops, stream.data(), select.data(), n, &state);
  return state;
}

}  // namespace acquire
