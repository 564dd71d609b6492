#include "core/acquire.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "common/stopwatch.h"

namespace acquire {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

RefinedQuery MakeGridAnswer(const RefinedSpace& space, const GridCoord& coord,
                            double aggregate, double error) {
  RefinedQuery q;
  q.coord = coord;
  q.pscores = space.CoordPScores(coord);
  q.qscore = space.QScoreOf(coord);
  q.aggregate = aggregate;
  q.error = error;
  q.description = space.Describe(coord);
  return q;
}

RefinedQuery MakeOffGridAnswer(const RefinedSpace& space,
                               const std::vector<double>& pscores,
                               double aggregate, double error) {
  RefinedQuery q;
  q.pscores = pscores;
  q.qscore = space.QScoreOfPScores(pscores);
  q.aggregate = aggregate;
  q.error = error;
  q.description = space.DescribePScores(pscores);
  return q;
}

// Repartitioning of an overshooting cell (Section 6): the previous grid
// layer undershot and this one jumped past an equality target, so the
// answer lies inside the cell. Diagonal bisection between the cell's lower
// and upper corners, `b` full-query probes.
Result<std::optional<RefinedQuery>> RepartitionCell(
    const RefinedSpace& space, EvaluationLayer* layer, const GridCoord& coord,
    const ErrorFn& error_fn, const AcquireOptions& options) {
  const size_t d = coord.size();
  std::vector<double> lo(d), hi(d);
  for (size_t i = 0; i < d; ++i) {
    hi[i] = static_cast<double>(coord[i]) * space.step();
    lo[i] = coord[i] > 0 ? hi[i] - space.step() : 0.0;
  }
  const Constraint& constraint = space.task().constraint;
  std::optional<RefinedQuery> best;
  std::vector<double> mid(d);
  for (int iter = 0; iter < options.repartition_iters; ++iter) {
    for (size_t i = 0; i < d; ++i) mid[i] = 0.5 * (lo[i] + hi[i]);
    ACQ_ASSIGN_OR_RETURN(double value, layer->EvaluateQueryValue(mid));
    double err = error_fn(constraint, value);
    if (!best.has_value() || err < best->error) {
      best = MakeOffGridAnswer(space, mid, value, err);
    }
    if (err <= options.delta) break;
    if (value < constraint.target) {
      lo = mid;  // undershoots: move toward the cell's upper corner
    } else {
      hi = mid;
    }
  }
  if (best.has_value() && best->error <= options.delta) return best;
  return std::optional<RefinedQuery>();
}

// `order` is resolved (not kAuto).
std::unique_ptr<QueryGenerator> MakeGenerator(const RefinedSpace& space,
                                              SearchOrder order,
                                              MemoryBudget* budget) {
  switch (order) {
    case SearchOrder::kShell:
      // O(d) state — nothing worth metering.
      return std::make_unique<ShellGenerator>(&space);
    case SearchOrder::kBestFirst:
      return std::make_unique<BestFirstGenerator>(&space, budget);
    case SearchOrder::kAuto:
    case SearchOrder::kBfs:
      break;
  }
  return std::make_unique<BfsGenerator>(&space, budget);
}

}  // namespace

Result<AcquireResult> RunAcquire(const AcqTask& task, EvaluationLayer* layer,
                                 const AcquireOptions& options) {
  if (task.d() == 0) {
    return Status::InvalidArgument("task has no refinable predicates");
  }
  if (layer == nullptr || &layer->task() != &task) {
    return Status::InvalidArgument(
        "evaluation layer must wrap the same AcqTask");
  }
  if (options.gamma <= 0.0) {
    return Status::InvalidArgument("gamma must be positive");
  }
  if (options.delta < 0.0) {
    return Status::InvalidArgument("delta must be non-negative");
  }

  const ErrorFn error_fn =
      options.error_fn ? options.error_fn : ErrorFn(DefaultAggregateError);
  RefinedSpace space(&task, options.gamma, options.norm);

  // Resolve the interruption context BEFORE Prepare: the evaluation layer
  // charges its materialization (and any charges deferred from a lazy
  // Prepare the processor triggered earlier) against the run's budget, so
  // the budget must be attached first. A memory budget needs a context to
  // latch exhaustion into, so budget-only runs get a local one.
  RunContext local_ctx;
  RunContext* ctx = options.run_ctx;
  if (ctx == nullptr && options.memory_budget_bytes > 0) ctx = &local_ctx;
  if (ctx != nullptr && options.memory_budget_bytes > 0 &&
      ctx->budget().limit() == 0) {
    ctx->budget().set_limit(options.memory_budget_bytes);
  }
  MemoryBudget* budget = ctx != nullptr ? &ctx->budget() : nullptr;
  if (budget != nullptr) layer->set_memory_budget(budget);

  ACQ_RETURN_IF_ERROR(layer->Prepare());
  layer->ResetStats();
  Stopwatch sw;  // after Prepare: elapsed_ms times the search itself

  SearchOrder effective_order = options.order;
  if (effective_order == SearchOrder::kAuto) {
    effective_order = options.norm.kind() == NormKind::kLInf
                          ? SearchOrder::kShell
                          : SearchOrder::kBfs;
  }
  std::unique_ptr<QueryGenerator> generator =
      MakeGenerator(space, effective_order, budget);
  // Per-layer divergence detection only makes sense when the generator
  // emits discrete layers; best-first scores are (nearly) unique per coord.
  const bool discrete_layers = effective_order != SearchOrder::kBestFirst;
  // Every order batches by default now: BFS and shell emit discrete layers,
  // and best-first micro-batches equal-score frontier runs (often single
  // coordinates, which the batched driver handles at no extra cost).
  const bool batched = options.batch_explore != BatchExplore::kOff;
  AcquireResult result;

  // Algorithm 4's minRefLayer, in generator-score units. Once a hit occurs,
  // the rest of its layer is examined and the search stops — or, with
  // collect_within_gamma, continues for another gamma's worth of layers.
  double stop_score = kInf;
  // The extra score budget gamma buys: for BFS/shell each layer adds one
  // grid step to the L1 refinement, so gamma ~= d layers; for best-first the
  // score *is* the QScore.
  const double gamma_bonus =
      options.order == SearchOrder::kBestFirst
          ? options.gamma
          : options.gamma / space.step();

  // Divergence detection across completed layers (see AcquireOptions).
  double last_score = 0.0;
  double layer_min_error = kInf;
  double prev_layer_min_error = kInf;
  int worse_layers = 0;

  // Best-so-far (materialized lazily at the end).
  GridCoord best_coord;
  double best_error = kInf;
  double best_aggregate = 0.0;
  bool best_is_offgrid = false;
  RefinedQuery best_offgrid;
  uint64_t stall = 0;  // queries since the best error last improved

  // Per-phase driver timings (ExecStats doc): generator, sub-query
  // execution, and the layer drain: Eq. 17 merges + investigate() per
  // coordinate (batched only).
  double expand_ms = 0.0;
  double explore_ms = 0.0;
  double drain_ms = 0.0;
  uint64_t total_cell_queries = 0;
  size_t store_peak_bytes = 0;

  // Layer-boundary bookkeeping (divergence detection across completed
  // layers; see AcquireOptions). False stops the search.
  auto close_layer = [&](double score) {
    if (stop_score == kInf) {
      if (layer_min_error > prev_layer_min_error) {
        ++worse_layers;
      } else if (layer_min_error < prev_layer_min_error) {
        worse_layers = 0;
      }
      if (worse_layers >= options.divergence_patience) return false;
    }
    prev_layer_min_error = layer_min_error;
    layer_min_error = kInf;
    last_score = score;
    return true;
  };

  // The per-coordinate body shared by the sequential and batched drivers:
  // record the aggregate of `coord`, repartition on an overshoot, apply the
  // stall/max_explored stopping rules. False stops the search.
  auto investigate = [&](const GridCoord& coord, double score,
                         double aggregate) -> Result<bool> {
    ++result.queries_explored;
    if (ctx != nullptr) {
      ctx->queries_explored.store(result.queries_explored,
                                  std::memory_order_relaxed);
    }
    const double err = error_fn(task.constraint, aggregate);
    layer_min_error = std::min(layer_min_error, err);

    if (err < best_error) {
      best_error = err;
      best_coord = coord;
      best_aggregate = aggregate;
      best_is_offgrid = false;
      stall = 0;
    } else if (++stall > options.stall_limit && stop_score == kInf) {
      return false;
    }

    if (err <= options.delta) {
      result.queries.push_back(MakeGridAnswer(space, coord, aggregate, err));
      if (stop_score == kInf) {
        stop_score =
            options.collect_within_gamma ? score + gamma_bonus : score;
      }
    } else if (options.repartition_iters > 0 &&
               OvershootsBeyondDelta(task.constraint, aggregate,
                                     options.delta)) {
      ACQ_ASSIGN_OR_RETURN(
          std::optional<RefinedQuery> repartitioned,
          RepartitionCell(space, layer, coord, error_fn, options));
      if (repartitioned.has_value()) {
        if (repartitioned->error < best_error) {
          best_error = repartitioned->error;
          best_offgrid = *repartitioned;
          best_is_offgrid = true;
        }
        result.queries.push_back(*std::move(repartitioned));
        if (stop_score == kInf) {
          stop_score =
              options.collect_within_gamma ? score + gamma_bonus : score;
        }
      }
    }

    if (result.queries_explored >= options.max_explored) {
      // Budget exhausted, not a verdict about the space: report distinctly
      // so callers can tell "no answer found" from "ran out of budget".
      result.termination = RunTermination::kTruncated;
      return false;
    }
    return true;
  };

  // Cooperative interruption poll shared by both drivers. True stops the
  // search, recording why; the partial best-so-far is still returned.
  auto interrupted = [&]() {
    if (ctx == nullptr || !ctx->ShouldStop()) return false;
    result.termination = ctx->Interruption();
    return result.termination != RunTermination::kCompleted;
  };

  // Layer-drain progress hook (RunContext::LayerDrained): counts the layer
  // and, when a throttled ProgressSink is armed, completes the snapshot with
  // the best-so-far and the evaluation layer's counters. The fill lambda
  // only runs for frames that actually emit, so the Describe() rendering
  // costs nothing on throttle-coalesced drains.
  auto layer_drained = [&]() {
    if (ctx == nullptr) return;
    ctx->LayerDrained([&](ProgressSnapshot* snap) {
      snap->elapsed_ms = sw.ElapsedMillis();
      if (best_is_offgrid) {
        snap->has_best = true;
        snap->best_error = best_offgrid.error;
        snap->best_qscore = best_offgrid.qscore;
        snap->best_aggregate = best_offgrid.aggregate;
        snap->best_description = best_offgrid.description;
      } else if (!best_coord.empty() || result.queries_explored > 0) {
        const GridCoord bc =
            best_coord.empty() ? GridCoord(task.d(), 0) : best_coord;
        snap->has_best = true;
        snap->best_error = best_error;
        snap->best_qscore = space.QScoreOf(bc);
        snap->best_aggregate = best_aggregate;
        snap->best_description = space.Describe(bc);
      }
      const EvaluationLayer::ExecStats stats = layer->stats();
      snap->eval_queries = stats.queries;
      snap->tuples_scanned = stats.tuples_scanned;
      snap->prepare_ms = stats.prepare_ms;
    });
  };

  // Prepare alone can exhaust a tight budget (the materialized matrix is
  // charged there). Still answer the origin — the original query, one box —
  // so the caller gets a meaningful best-so-far instead of an empty report,
  // then stop with the budget verdict.
  const bool pre_exhausted = budget != nullptr && budget->exhausted();
  if (pre_exhausted) {
    const GridCoord origin(task.d(), 0);
    ACQ_ASSIGN_OR_RETURN(AggregateOps::State state,
                         layer->EvaluateBox(space.QueryBox(origin)));
    ACQ_ASSIGN_OR_RETURN(const bool keep_unused,
                         investigate(origin, 0.0, task.agg.ops->Final(state)));
    (void)keep_unused;
    result.termination = ctx->Interruption();
  } else if (!batched) {
    Explorer explorer(&space, layer, budget);
    GridCoord coord;
    // Progress tracks score boundaries separately from the divergence
    // bookkeeping's last_score: best-first (non-discrete) runs never call
    // close_layer, but their score changes are still drain points.
    double progress_score = 0.0;
    for (;;) {
      if (interrupted()) break;
      Stopwatch t_next;
      const bool have = generator->Next(&coord);
      expand_ms += t_next.ElapsedMillis();
      if (!have) break;
      const double score = generator->CurrentScore();
      if (score > stop_score) break;
      if (score != progress_score) {
        if (result.queries_explored > 0) layer_drained();
        progress_score = score;
      }
      if (discrete_layers && score != last_score && !close_layer(score)) {
        break;
      }

      Stopwatch t_explore;
      double aggregate;
      if (options.use_incremental) {
        ACQ_ASSIGN_OR_RETURN(aggregate, explorer.ComputeAggregate(coord));
      } else {
        // Ablation: full re-execution of the refined query.
        ACQ_ASSIGN_OR_RETURN(AggregateOps::State state,
                             layer->EvaluateBox(space.QueryBox(coord)));
        aggregate = task.agg.ops->Final(state);
      }
      ACQ_ASSIGN_OR_RETURN(const bool keep,
                           investigate(coord, score, aggregate));
      explore_ms += t_explore.ElapsedMillis();
      if (ctx != nullptr) {
        ctx->cell_queries.store(explorer.cell_queries(),
                                std::memory_order_relaxed);
      }
      if (!keep) break;
    }
    total_cell_queries = explorer.cell_queries();
    store_peak_bytes = explorer.store().MemoryBytes();
  } else {
    // BFS order addresses the store by layer position; shell order's whole
    // shell drains as one layer with intra-layer predecessors, which the
    // shell cursors resolve.
    BatchExplorer batch(&space, layer, generator.get(), effective_order, ctx);
    std::vector<AggregateOps::State> layer_states;  // non-incremental mode
    bool running = true;
    while (running && !interrupted() && batch.NextLayer()) {
      const double score = batch.layer_score();
      if (score > stop_score) break;
      if (discrete_layers && score != last_score && !close_layer(score)) {
        break;
      }

      // Execute the whole layer's sub-queries up front (one parallel or
      // natively merged batch), then drain in generation order.
      if (options.use_incremental) {
        ACQ_RETURN_IF_ERROR(batch.ExecuteLayer());
      } else {
        Stopwatch t_batch;
        std::vector<std::vector<PScoreRange>> boxes;
        boxes.reserve(batch.layer().size());
        for (const GridCoord& c : batch.layer()) {
          boxes.push_back(space.QueryBox(c));
        }
        ACQ_ASSIGN_OR_RETURN(layer_states, layer->EvaluateBoxes(boxes));
        explore_ms += t_batch.ElapsedMillis();
      }

      Stopwatch t_drain;
      for (size_t q = 0; q < batch.layer().size(); ++q) {
        const GridCoord& coord = batch.layer()[q];
        double aggregate;
        if (options.use_incremental) {
          ACQ_ASSIGN_OR_RETURN(aggregate, batch.ComputeAggregate(q));
        } else {
          aggregate = task.agg.ops->Final(layer_states[q]);
        }
        ACQ_ASSIGN_OR_RETURN(const bool keep,
                             investigate(coord, score, aggregate));
        if (!keep) {
          running = false;
          break;
        }
      }
      drain_ms += t_drain.ElapsedMillis();
      if (ctx != nullptr) {
        ctx->cell_queries.store(batch.cell_queries(),
                                std::memory_order_relaxed);
      }
      if (running) {
        // This equi-score layer is fully investigated: a drain point.
        layer_drained();
      }
    }
    // An early exit can leave the next layer's prefetch running, and it
    // writes expand_ms_ until joined.
    batch.Finish();
    total_cell_queries = batch.cell_queries();
    store_peak_bytes = batch.store_peak_bytes();
    expand_ms += batch.expand_ms();
    explore_ms += batch.batch_ms();
  }

  result.satisfied = !result.queries.empty();
  if (best_is_offgrid) {
    result.best = best_offgrid;
  } else if (!best_coord.empty() || result.queries_explored > 0) {
    result.best =
        MakeGridAnswer(space, best_coord.empty() ? GridCoord(task.d(), 0)
                                                 : best_coord,
                       best_aggregate, best_error);
  }
  std::sort(result.queries.begin(), result.queries.end(),
            [](const RefinedQuery& a, const RefinedQuery& b) {
              return a.qscore < b.qscore;
            });
  result.cell_queries = total_cell_queries;
  result.exec_stats = layer->stats();
  result.exec_stats.expand_ms = expand_ms;
  result.exec_stats.explore_ms = explore_ms;
  result.exec_stats.drain_ms = drain_ms;
  result.exec_stats.store_peak_bytes = store_peak_bytes;
  result.elapsed_ms = sw.ElapsedMillis();
  return result;
}

}  // namespace acquire
