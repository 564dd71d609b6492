// Outside-the-program tracing for the benchmark's traced run: an in-memory
// span store and a forwarding evaluation layer that records one span per
// cell/box evaluation call. Nothing here changes what the engine computes.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/evaluation.h"

namespace perfbench {

/// Steady-clock nanoseconds since the first call in this process.
int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the causing span; -1 for a root
  uint64_t request = 0;
};

/// Spans of one run, kept in memory until WriteJsonLines at exit.
class Tracer {
 public:
  /// Opens a span starting now and returns its id.
  int32_t Begin(const char* name, int32_t parent, uint64_t request);
  /// Closes span `id` now.
  void End(int32_t id);
  /// Records an already-measured span.
  int32_t Add(const Span& span);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// One JSON object per span. False when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // under mu_
};

/// Forwards every call to `inner` and records an "exec.eval_cells" or
/// "exec.eval_box" span (child of `parent`) around each evaluation call.
/// Query counts stay on the inner layer's stats().
class TracingLayer final : public acquire::EvaluationLayer {
 public:
  TracingLayer(acquire::EvaluationLayer* inner, Tracer* tracer,
               int32_t parent, uint64_t request);

  acquire::Status Prepare() override { return inner_->Prepare(); }

  acquire::Result<acquire::AggregateOps::State> EvaluateBox(
      const std::vector<acquire::PScoreRange>& box) override;

  acquire::Result<std::vector<acquire::AggregateOps::State>> EvaluateCells(
      const acquire::GridCoord* coords, size_t count, double step) override;

  bool SupportsConcurrentEvaluate() const override {
    return inner_->SupportsConcurrentEvaluate();
  }

 private:
  acquire::EvaluationLayer* inner_;
  Tracer* tracer_;
  const int32_t parent_;
  const uint64_t request_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
