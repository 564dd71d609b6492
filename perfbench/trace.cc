#include "trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

int32_t Tracer::Begin(const char* name, int32_t parent, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  return Add(span);
}

void Tracer::End(int32_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int32_t Tracer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"request\":%" PRIu64
                 "}\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.request);
  }
  return std::fclose(out) == 0;
}

TracingLayer::TracingLayer(acquire::EvaluationLayer* inner, Tracer* tracer,
                           int32_t parent, uint64_t request)
    : EvaluationLayer(&inner->task()),
      inner_(inner),
      tracer_(tracer),
      parent_(parent),
      request_(request) {}

acquire::Result<acquire::AggregateOps::State> TracingLayer::EvaluateBox(
    const std::vector<acquire::PScoreRange>& box) {
  const int32_t span = tracer_->Begin("exec.eval_box", parent_, request_);
  auto result = inner_->EvaluateBox(box);
  tracer_->End(span);
  return result;
}

acquire::Result<std::vector<acquire::AggregateOps::State>>
TracingLayer::EvaluateCells(const acquire::GridCoord* coords, size_t count,
                            double step) {
  const int32_t span = tracer_->Begin("exec.eval_cells", parent_, request_);
  auto result = inner_->EvaluateCells(coords, count, step);
  tracer_->End(span);
  return result;
}

}  // namespace perfbench
