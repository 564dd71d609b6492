// Behavioral tests of the ACQUIRE driver (Algorithm 4) and its options.

#include "core/acquire.h"

#include <gtest/gtest.h>
#include <cmath>

#include "exec/parallel_evaluation.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

std::unique_ptr<test_util::SyntheticTask> CountFixture(size_t d,
                                                       double ratio) {
  SyntheticOptions options;
  options.d = d;
  options.rows = 3000;
  options.target = 1.0;  // replaced below
  auto fixture = MakeSyntheticTask(options);
  if (fixture == nullptr) return nullptr;
  DirectEvaluationLayer layer(&fixture->task);
  auto base =
      layer.EvaluateQueryValue(std::vector<double>(fixture->task.d(), 0.0));
  if (!base.ok() || *base <= 0) return nullptr;
  fixture->task.constraint.target = *base / ratio;
  return fixture;
}

TEST(AcquireDriverTest, OriginAlreadySatisfiesTarget) {
  auto fixture = CountFixture(2, /*ratio=*/1.0);  // target == base aggregate
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto result = RunAcquire(fixture->task, &layer, {});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  EXPECT_EQ(result->queries[0].coord, GridCoord(2, 0));
  EXPECT_DOUBLE_EQ(result->queries[0].qscore, 0.0);
  EXPECT_EQ(result->queries_explored, 1u);  // stops with layer 0
}

TEST(AcquireDriverTest, HitLayerIsFullyCollected) {
  auto fixture = CountFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  options.delta = 0.2;  // generous so several same-layer queries qualify
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  // All answers share the grid layer of the first hit (Algorithm 4's
  // minRefLayer semantics) modulo repartitioned (off-grid) extras.
  int64_t hit_layer = -1;
  for (const RefinedQuery& q : result->queries) {
    if (q.coord.empty()) continue;
    int64_t layer_sum = q.coord[0] + q.coord[1];
    if (hit_layer < 0) hit_layer = layer_sum;
    EXPECT_EQ(layer_sum, hit_layer);
  }
}

TEST(AcquireDriverTest, GreaterEqualConstraintUsesHinge) {
  SyntheticOptions opts;
  opts.d = 2;
  opts.op = ConstraintOp::kGe;
  opts.agg = AggregateKind::kSum;
  opts.target = 1.0;
  auto fixture = MakeSyntheticTask(opts);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  double base = probe.EvaluateQueryValue({0.0, 0.0}).value();
  fixture->task.constraint.target = base * 1.8;

  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto result = RunAcquire(fixture->task, &layer, {});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  // Hinge: overshoot is free; undershoot is allowed only within delta.
  for (const RefinedQuery& q : result->queries) {
    EXPECT_GE(q.aggregate, fixture->task.constraint.target * 0.95);
    EXPECT_LE(q.error, 0.05);
    if (q.aggregate >= fixture->task.constraint.target) {
      EXPECT_DOUBLE_EQ(q.error, 0.0);
    }
  }
}

TEST(AcquireDriverTest, RepartitionRecoversFromCoarseGrid) {
  // A huge gamma makes the grid step jump far past the equality target;
  // repartitioning must bisect inside the overshooting cell.
  auto fixture = CountFixture(1, 0.7);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  options.gamma = 200.0;  // step 200 in 1-D: absurdly coarse
  options.delta = 0.02;
  options.repartition_iters = 20;
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  bool has_offgrid = false;
  for (const RefinedQuery& q : result->queries) {
    has_offgrid = has_offgrid || q.coord.empty();
    EXPECT_LE(q.error, options.delta);
  }
  EXPECT_TRUE(has_offgrid);
}

TEST(AcquireDriverTest, RepartitionDisabledFailsGracefully) {
  auto fixture = CountFixture(1, 0.7);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  options.gamma = 200.0;
  options.delta = 0.02;
  options.repartition_iters = 0;
  options.divergence_patience = 2;
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
  EXPECT_GT(result->best.aggregate, 0.0);  // best-effort answer still given
}

TEST(AcquireDriverTest, UnreachableTargetReturnsBestEffort) {
  auto fixture = CountFixture(1, 0.9);
  ASSERT_NE(fixture, nullptr);
  // More tuples than the relation holds can never be reached.
  fixture->task.constraint.target =
      static_cast<double>(fixture->task.relation->num_rows()) * 10.0;
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto result = RunAcquire(fixture->task, &layer, {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
  EXPECT_TRUE(result->queries.empty());
  // Best effort = the fully refined query.
  EXPECT_NEAR(result->best.aggregate,
              static_cast<double>(fixture->task.relation->num_rows()),
              fixture->task.relation->num_rows() * 0.01);
}

TEST(AcquireDriverTest, WeightedDimRefinesLess) {
  // Section 7.1: a heavily weighted predicate should be spared.
  auto make_result = [&](double w0) {
    auto fixture = CountFixture(2, 0.4);
    EXPECT_NE(fixture, nullptr);
    fixture->task.dims[0]->set_weight(w0);
    ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
    AcquireOptions options;
    options.order = SearchOrder::kBestFirst;  // exact weighted order
    auto result = RunAcquire(fixture->task, &layer, options);
    EXPECT_TRUE(result.ok() && result->satisfied);
    return result->queries[0];
  };
  RefinedQuery balanced = make_result(1.0);
  RefinedQuery skewed = make_result(8.0);
  EXPECT_LE(skewed.pscores[0], balanced.pscores[0] + 1e-9);
  EXPECT_GE(skewed.pscores[1], balanced.pscores[1] - 1e-9);
}

TEST(AcquireDriverTest, CollectWithinGammaReturnsMoreAnswers) {
  auto fixture = CountFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions narrow;
  narrow.delta = 0.1;
  AcquireOptions wide = narrow;
  wide.collect_within_gamma = true;
  ParallelEvaluationLayer l1(&fixture->task, /*pool=*/nullptr);
  ParallelEvaluationLayer l2(&fixture->task, /*pool=*/nullptr);
  auto r1 = RunAcquire(fixture->task, &l1, narrow);
  auto r2 = RunAcquire(fixture->task, &l2, wide);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(r1->satisfied && r2->satisfied);
  EXPECT_GE(r2->queries.size(), r1->queries.size());
}

TEST(AcquireDriverTest, LInfNormUsesShellSearch) {
  auto fixture = CountFixture(2, 0.6);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  options.norm = Norm::LInf();
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  for (const RefinedQuery& q : result->queries) {
    EXPECT_LE(q.error, options.delta);
  }
}

TEST(AcquireDriverTest, BestFirstFindsSameQualityAsBfsForL1) {
  auto fixture = CountFixture(3, 0.5);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer l1(&fixture->task, /*pool=*/nullptr);
  ParallelEvaluationLayer l2(&fixture->task, /*pool=*/nullptr);
  AcquireOptions bfs;
  AcquireOptions best_first;
  best_first.order = SearchOrder::kBestFirst;
  auto r1 = RunAcquire(fixture->task, &l1, bfs);
  auto r2 = RunAcquire(fixture->task, &l2, best_first);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(r1->satisfied && r2->satisfied);
  EXPECT_NEAR(r1->queries[0].qscore, r2->queries[0].qscore, 1e-9);
}

TEST(AcquireDriverTest, CustomErrorFunctionIsHonored) {
  auto fixture = CountFixture(1, 0.5);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  int calls = 0;
  options.error_fn = [&calls](const Constraint& c, double actual) {
    ++calls;
    return DefaultAggregateError(c, actual);
  };
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(calls, 0);
}

TEST(AcquireDriverTest, MaxExploredCapsTheSearch) {
  auto fixture = CountFixture(3, 0.2);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  options.max_explored = 5;
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->queries_explored, 5u);
}

TEST(AcquireDriverTest, InvalidOptionsRejected) {
  auto fixture = CountFixture(1, 0.5);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions bad_gamma;
  bad_gamma.gamma = 0.0;
  EXPECT_FALSE(RunAcquire(fixture->task, &layer, bad_gamma).ok());
  AcquireOptions bad_delta;
  bad_delta.delta = -0.1;
  EXPECT_FALSE(RunAcquire(fixture->task, &layer, bad_delta).ok());
  EXPECT_FALSE(RunAcquire(fixture->task, nullptr, {}).ok());
}

TEST(AcquireDriverTest, MismatchedLayerRejected) {
  auto f1 = CountFixture(1, 0.5);
  auto f2 = CountFixture(1, 0.5);
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f2, nullptr);
  ParallelEvaluationLayer layer(&f2->task, /*pool=*/nullptr);
  EXPECT_FALSE(RunAcquire(f1->task, &layer, {}).ok());
}

TEST(ErrorFnTest, RelativeErrorForEquality) {
  Constraint c{ConstraintOp::kEq, 100.0};
  EXPECT_DOUBLE_EQ(DefaultAggregateError(c, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(DefaultAggregateError(c, 90.0), 0.1);
  EXPECT_DOUBLE_EQ(DefaultAggregateError(c, 120.0), 0.2);
}

TEST(ErrorFnTest, HingeForInequalities) {
  Constraint ge{ConstraintOp::kGe, 100.0};
  EXPECT_DOUBLE_EQ(DefaultAggregateError(ge, 150.0), 0.0);
  EXPECT_DOUBLE_EQ(DefaultAggregateError(ge, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(DefaultAggregateError(ge, 80.0), 0.2);
  Constraint gt{ConstraintOp::kGt, 100.0};
  EXPECT_DOUBLE_EQ(DefaultAggregateError(gt, 101.0), 0.0);
}

TEST(ErrorFnTest, OvershootOnlyForEquality) {
  Constraint eq{ConstraintOp::kEq, 100.0};
  EXPECT_TRUE(OvershootsBeyondDelta(eq, 110.0, 0.05));
  EXPECT_FALSE(OvershootsBeyondDelta(eq, 104.0, 0.05));
  Constraint ge{ConstraintOp::kGe, 100.0};
  EXPECT_FALSE(OvershootsBeyondDelta(ge, 1000.0, 0.05));
}

}  // namespace
}  // namespace acquire
