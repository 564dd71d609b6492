// Randomized end-to-end fuzzing: random tables (sizes, distributions,
// correlations), random ACQ specs (dimensionality, bounds, aggregates,
// constraint ops, targets) pushed through the full pipeline. Invariants:
// no crashes, every reported answer honest (error consistent with its
// aggregate, aggregate consistent with a brute-force re-count), answers
// sorted, and ProcessAcq's mode dispatch coherent.

#include <gtest/gtest.h>
#include <cmath>

#include "common/random.h"
#include "core/processor.h"
#include "exec/materialize.h"
#include "exec/parallel_evaluation.h"
#include "exec/planner.h"
#include "storage/catalog.h"

namespace acquire {
namespace {

// Random table: 3-6 numeric columns with mixed distributions.
TablePtr RandomTable(Rng* rng, size_t rows) {
  size_t num_cols = 3 + rng->NextBounded(4);
  std::vector<Field> fields;
  for (size_t c = 0; c < num_cols; ++c) {
    fields.push_back({"c" + std::to_string(c), DataType::kDouble, ""});
  }
  auto table = std::make_shared<Table>("fuzz", Schema(std::move(fields)));
  std::vector<int> dist(num_cols);
  std::vector<double> lo(num_cols);
  std::vector<double> hi(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    dist[c] = static_cast<int>(rng->NextBounded(3));
    lo[c] = rng->NextDouble(-100.0, 100.0);
    hi[c] = lo[c] + rng->NextDouble(1.0, 500.0);
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      double v;
      switch (dist[c]) {
        case 0:  // uniform
          v = rng->NextDouble(lo[c], hi[c]);
          break;
        case 1:  // clipped gaussian around the middle
          v = std::clamp(0.5 * (lo[c] + hi[c]) +
                             rng->NextGaussian() * (hi[c] - lo[c]) / 6.0,
                         lo[c], hi[c]);
          break;
        default:  // correlated with the previous column (or uniform)
          v = c == 0 ? rng->NextDouble(lo[c], hi[c])
                     : std::clamp(table->column(c - 1).GetDouble(r) * 0.5 +
                                      rng->NextDouble(lo[c], hi[c]) * 0.5,
                                  lo[c], hi[c]);
          break;
      }
      table->mutable_column(c).AppendDouble(v);
    }
  }
  EXPECT_TRUE(table->FinalizeAppend().ok());
  return table;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, RandomTaskInvariantsHold) {
  Rng rng(GetParam() * 7919 + 13);
  Catalog catalog;
  TablePtr table = RandomTable(&rng, 500 + rng.NextBounded(2000));
  ASSERT_TRUE(catalog.AddTable(table).ok());

  // Random spec: 1-3 refinable predicates over distinct columns.
  QuerySpec spec;
  spec.tables = {"fuzz"};
  size_t d = 1 + rng.NextBounded(3);
  d = std::min(d, table->num_columns());
  for (size_t i = 0; i < d; ++i) {
    const ColumnStats& stats = table->Stats(i);
    CompareOp op = rng.NextBool() ? CompareOp::kLe : CompareOp::kGe;
    double bound = rng.NextDouble(stats.min, stats.max);
    spec.predicates.push_back(SelectPredicateSpec{
        "c" + std::to_string(i), op, bound, true,
        rng.NextDouble(0.5, 2.0), {}});
  }
  int agg_pick = static_cast<int>(rng.NextBounded(3));
  spec.agg_kind = agg_pick == 0 ? AggregateKind::kCount
                  : agg_pick == 1 ? AggregateKind::kSum
                                  : AggregateKind::kAvg;
  if (spec.agg_kind != AggregateKind::kCount) {
    spec.agg_column = "c" + std::to_string(table->num_columns() - 1);
  }
  spec.constraint_op = rng.NextBool() ? ConstraintOp::kEq : ConstraintOp::kGe;
  spec.target = 1.0;  // fixed up below

  auto planned = PlanAcqTask(catalog, spec);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  AcqTask task = std::move(planned).value();

  DirectEvaluationLayer probe(&task);
  double base =
      probe.EvaluateQueryValue(std::vector<double>(task.d(), 0.0)).value();
  // Targets can sit below, at, or above the original aggregate; negative
  // SUM/AVG bases are clamped to a positive target (Section 2.1 requires
  // positive X).
  double factor = rng.NextDouble(0.5, 3.0);
  task.constraint.target = std::fabs(base) * factor + 1.0;

  ParallelEvaluationLayer layer(&task, /*pool=*/nullptr);
  AcquireOptions options;
  options.delta = rng.NextDouble(0.01, 0.1);
  options.gamma = rng.NextDouble(5.0, 30.0);
  options.max_explored = 40000;
  auto outcome = ProcessAcq(task, &layer, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  const AcquireResult& result = outcome->result;
  // Invariant: answers sorted by qscore, each error consistent.
  const ErrorFn error_fn = DefaultAggregateError;
  for (size_t i = 0; i < result.queries.size(); ++i) {
    const RefinedQuery& q = result.queries[i];
    EXPECT_LE(q.error, options.delta + 1e-9);
    EXPECT_NEAR(q.error, error_fn(task.constraint, q.aggregate), 1e-9);
    if (i > 0) {
      EXPECT_LE(result.queries[i - 1].qscore, q.qscore + 1e-9);
    }
  }
  // Invariant: a reported expansion answer's aggregate matches a
  // brute-force materialization of its refined query.
  if (outcome->mode == AcqMode::kExpanded && result.satisfied &&
      task.agg.kind == AggregateKind::kCount) {
    const RefinedQuery& q = result.queries.front();
    auto tuples = MaterializeRefinedQuery(task, q.pscores);
    ASSERT_TRUE(tuples.ok());
    EXPECT_DOUBLE_EQ(static_cast<double>((*tuples)->num_rows()), q.aggregate);
  }
  // Invariant: mode dispatch is coherent with the measured origin.
  double origin_err = error_fn(task.constraint, outcome->original_aggregate);
  switch (outcome->mode) {
    case AcqMode::kOriginalSatisfies:
      EXPECT_LE(origin_err, options.delta);
      break;
    case AcqMode::kExpanded:
      EXPECT_GT(origin_err, options.delta);
      EXPECT_FALSE(OvershootsBeyondDelta(task.constraint,
                                         outcome->original_aggregate,
                                         options.delta));
      break;
    case AcqMode::kContracted:
      EXPECT_TRUE(OvershootsBeyondDelta(task.constraint,
                                        outcome->original_aggregate,
                                        options.delta));
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(uint64_t{0},
                                                           uint64_t{40}));

}  // namespace
}  // namespace acquire
