#include "core/contract.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/refined_space.h"

namespace acquire {

ContractionDim::ContractionDim(std::string column, bool is_upper,
                               double bound, double width)
    : column_(std::move(column)),
      is_upper_(is_upper),
      bound_(bound),
      width_(width) {}

Status ContractionDim::Bind(const Schema& schema) {
  ACQ_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(column_));
  if (!IsNumeric(schema.field(idx).type)) {
    return Status::TypeError("contraction predicate on non-numeric column: " +
                             column_);
  }
  col_index_ = static_cast<int>(idx);
  return Status::OK();
}

double ContractionDim::NeededPScore(const Table& table, size_t row) const {
  double v = table.column(static_cast<size_t>(col_index_)).GetDouble(row);
  // Tuples outside the original predicate are never admitted — contraction
  // only shrinks the query.
  double slack = (is_upper_ ? bound_ - v : v - bound_) / width_ * 100.0;
  if (slack < 0.0) return kUnreachable;
  slack = std::min(slack, 100.0);
  return 100.0 - slack;
}

double ContractionDim::ContractedBound(double pscore) const {
  double contraction = 100.0 - std::clamp(pscore, 0.0, 100.0);
  double delta = contraction / 100.0 * width_;
  return is_upper_ ? bound_ - delta : bound_ + delta;
}

std::string ContractionDim::DescribeAt(double pscore) const {
  return StringFormat("%s %s %g", column_.c_str(), is_upper_ ? "<=" : ">=",
                      ContractedBound(pscore));
}

std::string ContractionDim::label() const { return DescribeAt(100.0); }

Result<AcqTask> MakeContractionTask(const AcqTask& task) {
  AcqTask out;
  out.relation = task.relation;
  out.agg = task.agg;
  out.constraint = task.constraint;
  out.eval_backend = task.eval_backend;
  for (const RefinementDimPtr& dim : task.dims) {
    const auto* numeric = dynamic_cast<const NumericDim*>(dim.get());
    if (numeric == nullptr) {
      return Status::Unsupported(
          "contraction supports numeric select predicates only (join bands "
          "cannot shrink below equality; categorical drill-down is future "
          "work): " +
          dim->label());
    }
    auto contraction = std::make_unique<ContractionDim>(
        numeric->column(), numeric->is_upper(), numeric->bound(),
        numeric->width());
    contraction->set_weight(dim->weight());
    out.dims.push_back(std::move(contraction));
  }
  for (const RefinementDimPtr& dim : out.dims) {
    ACQ_RETURN_IF_ERROR(dim->Bind(out.relation->schema()));
  }
  return out;
}

namespace {

// Enumerates every coordinate with the given component sum under per-axis
// caps, in lexicographic order. Returns false when the visitor stops.
bool EnumerateLayer(const std::vector<int32_t>& caps,
                    const std::vector<int64_t>& suffix_caps, int64_t sum,
                    size_t dim, GridCoord* coord,
                    const std::function<bool(const GridCoord&)>& visit) {
  const size_t d = caps.size();
  if (dim == d) {
    return sum == 0 ? visit(*coord) : true;
  }
  int64_t lo = std::max<int64_t>(0, sum - suffix_caps[dim + 1]);
  int64_t hi = std::min<int64_t>(caps[dim], sum);
  for (int64_t v = lo; v <= hi; ++v) {
    (*coord)[dim] = static_cast<int32_t>(v);
    if (!EnumerateLayer(caps, suffix_caps, sum - v, dim + 1, coord, visit)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<AcquireResult> RunAcquireContract(const AcqTask& task,
                                         EvaluationLayer* layer,
                                         const AcquireOptions& options) {
  if (task.d() == 0) {
    return Status::InvalidArgument("task has no refinable predicates");
  }
  if (layer == nullptr || &layer->task() != &task) {
    return Status::InvalidArgument(
        "evaluation layer must wrap the same AcqTask");
  }
  if (task.constraint.op != ConstraintOp::kEq) {
    return Status::Unsupported(
        "contraction targets equality constraints that overshoot");
  }

  const ErrorFn error_fn =
      options.error_fn ? options.error_fn : ErrorFn(DefaultAggregateError);
  RefinedSpace space(&task, options.gamma, options.norm);

  // Budget resolution mirrors RunAcquire: attach before Prepare so the
  // contraction layer's materialization is charged against the run too.
  RunContext contract_local_ctx;
  RunContext* resolved_ctx = options.run_ctx;
  if (resolved_ctx == nullptr && options.memory_budget_bytes > 0) {
    resolved_ctx = &contract_local_ctx;
  }
  if (resolved_ctx != nullptr && options.memory_budget_bytes > 0 &&
      resolved_ctx->budget().limit() == 0) {
    resolved_ctx->budget().set_limit(options.memory_budget_bytes);
  }
  if (resolved_ctx != nullptr) {
    layer->set_memory_budget(&resolved_ctx->budget());
  }

  ACQ_RETURN_IF_ERROR(layer->Prepare());
  layer->ResetStats();
  Stopwatch sw;  // after Prepare: elapsed_ms times the search itself

  const size_t d = task.d();
  std::vector<int32_t> caps(d);
  std::vector<int64_t> suffix_caps(d + 1, 0);
  for (size_t i = 0; i < d; ++i) caps[i] = space.MaxLevel(i);
  for (size_t i = d; i-- > 0;) suffix_caps[i] = suffix_caps[i + 1] + caps[i];
  const int64_t max_sum = suffix_caps[0];

  AcquireResult result;
  double best_error = std::numeric_limits<double>::infinity();

  // Converts a p'-space refinement into user-facing contraction terms.
  auto make_offgrid_answer = [&](const std::vector<double>& pprime,
                                 double aggregate, double err) {
    RefinedQuery q;
    q.pscores.resize(d);
    for (size_t i = 0; i < d; ++i) {
      q.pscores[i] = task.dims[i]->MaxPScore() - pprime[i];  // contraction c
    }
    q.qscore = space.QScoreOfPScores(q.pscores);
    q.aggregate = aggregate;
    q.error = err;
    q.description = space.DescribePScores(pprime);
    return q;
  };
  auto make_answer = [&](const GridCoord& coord, double aggregate,
                         double err) {
    RefinedQuery q = make_offgrid_answer(space.CoordPScores(coord), aggregate,
                                         err);
    q.coord = coord;
    q.description = space.Describe(coord);
    return q;
  };

  // When the p'-grid jumps across the target — coordinate c contracts too
  // far while c + 1 (one step less contraction) does not contract enough —
  // bisect the in-between region, mirroring the expansion driver's
  // repartitioning (Section 6).
  auto repartition = [&](const GridCoord& coord)
      -> Result<std::optional<RefinedQuery>> {
    std::vector<double> lo = space.CoordPScores(coord);
    std::vector<double> hi(d);
    for (size_t i = 0; i < d; ++i) {
      hi[i] = std::min(lo[i] + space.step(), task.dims[i]->MaxPScore());
    }
    std::optional<RefinedQuery> found;
    std::vector<double> mid(d);
    for (int iter = 0; iter < options.repartition_iters; ++iter) {
      for (size_t i = 0; i < d; ++i) mid[i] = 0.5 * (lo[i] + hi[i]);
      std::vector<PScoreRange> box(d);
      for (size_t i = 0; i < d; ++i) box[i] = PScoreRange{-1.0, mid[i]};
      ACQ_ASSIGN_OR_RETURN(AggregateOps::State state, layer->EvaluateBox(box));
      double value = task.agg.ops->Final(state);
      double err = error_fn(task.constraint, value);
      if (!found.has_value() || err < found->error) {
        found = make_offgrid_answer(mid, value, err);
      }
      if (err <= options.delta) break;
      if (value < task.constraint.target) {
        lo = mid;  // still contracting too much: move toward less
      } else {
        hi = mid;
      }
    }
    if (found.has_value() && found->error <= options.delta) return found;
    return std::optional<RefinedQuery>();
  };

  // Walk layers from the original query (p' sum = max) toward Q'_min,
  // i.e. in order of increasing total contraction; stop with the first
  // layer that contains an answer.
  Status inner_status;
  GridCoord coord(d);
  double expand_ms = 0.0;
  double explore_ms = 0.0;
  double drain_ms = 0.0;
  const bool batched = options.batch_explore != BatchExplore::kOff;
  std::vector<GridCoord> layer_coords;
  std::vector<std::vector<PScoreRange>> boxes;

  RunContext* ctx = resolved_ctx;
  // Cooperative interruption poll (see RunAcquire); true stops the walk.
  auto interrupted = [&]() {
    if (ctx == nullptr || !ctx->ShouldStop()) return false;
    result.termination = ctx->Interruption();
    return result.termination != RunTermination::kCompleted;
  };

  // Per-coordinate body shared by the sequential and batched walks (the
  // full-query aggregate is already evaluated). False stops the search.
  auto visit_value = [&](const GridCoord& c, double aggregate) {
    ++result.queries_explored;
    if (ctx != nullptr) {
      ctx->queries_explored.store(result.queries_explored,
                                  std::memory_order_relaxed);
    }
    double err = error_fn(task.constraint, aggregate);
    bool layer_hit = false;
    if (err < best_error) {
      best_error = err;
      result.best = make_answer(c, aggregate, err);
    }
    if (err <= options.delta) {
      layer_hit = true;
      result.queries.push_back(make_answer(c, aggregate, err));
    } else if (options.repartition_iters > 0 &&
               aggregate < task.constraint.target * (1.0 - options.delta)) {
      // Contracted past the target: the answer lies between this
      // coordinate and one grid step less contraction. Repartitioning
      // (Section 6) stays sequential either way.
      auto repartitioned = repartition(c);
      if (!repartitioned.ok()) {
        inner_status = repartitioned.status();
        return std::make_pair(false, false);
      }
      if (repartitioned->has_value()) {
        if ((*repartitioned)->error < best_error) {
          best_error = (*repartitioned)->error;
          result.best = **repartitioned;
        }
        layer_hit = true;
        result.queries.push_back(**repartitioned);
      }
    }
    bool keep = result.queries_explored < options.max_explored;
    if (!keep) result.termination = RunTermination::kTruncated;
    return std::make_pair(keep, layer_hit);
  };

  for (int64_t sum = max_sum; sum >= 0; --sum) {
    if (interrupted()) break;
    bool layer_hit = false;
    bool keep_going = true;
    if (batched) {
      // Enumerate the layer, evaluate every full-query box in one batch
      // (parallel when the layer supports concurrent evaluation), then
      // apply the hit/repartition logic in enumeration order.
      Stopwatch t_expand;
      layer_coords.clear();
      EnumerateLayer(caps, suffix_caps, sum, 0, &coord,
                     [&](const GridCoord& c) {
                       layer_coords.push_back(c);
                       return true;
                     });
      expand_ms += t_expand.ElapsedMillis();

      Stopwatch t_batch;
      boxes.clear();
      boxes.reserve(layer_coords.size());
      for (const GridCoord& c : layer_coords) {
        boxes.push_back(space.QueryBox(c));
      }
      ACQ_ASSIGN_OR_RETURN(std::vector<AggregateOps::State> states,
                           layer->EvaluateBoxes(boxes));
      explore_ms += t_batch.ElapsedMillis();

      Stopwatch t_drain;
      for (size_t q = 0; q < layer_coords.size(); ++q) {
        auto [keep, hit] = visit_value(layer_coords[q],
                                       task.agg.ops->Final(states[q]));
        layer_hit |= hit;
        if (!keep) {
          keep_going = false;
          break;
        }
      }
      drain_ms += t_drain.ElapsedMillis();
    } else {
      Stopwatch t_layer;
      keep_going = EnumerateLayer(
          caps, suffix_caps, sum, 0, &coord, [&](const GridCoord& c) {
            if (interrupted()) return false;
            auto state = layer->EvaluateBox(space.QueryBox(c));
            if (!state.ok()) {
              inner_status = state.status();
              return false;
            }
            auto [keep, hit] =
                visit_value(c, task.agg.ops->Final(state.value()));
            layer_hit |= hit;
            return keep;
          });
      explore_ms += t_layer.ElapsedMillis();
    }
    ACQ_RETURN_IF_ERROR(inner_status);
    if (layer_hit || !keep_going) break;
  }

  result.satisfied = !result.queries.empty();
  std::sort(result.queries.begin(), result.queries.end(),
            [](const RefinedQuery& a, const RefinedQuery& b) {
              return a.qscore < b.qscore;
            });
  result.exec_stats = layer->stats();
  result.exec_stats.expand_ms = expand_ms;
  result.exec_stats.explore_ms = explore_ms;
  result.exec_stats.drain_ms = drain_ms;
  result.elapsed_ms = sw.ElapsedMillis();
  return result;
}

}  // namespace acquire
