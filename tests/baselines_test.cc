#include <gtest/gtest.h>
#include <cmath>

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

std::unique_ptr<test_util::SyntheticTask> CountFixture(size_t d, double ratio,
                                                       uint64_t seed = 1) {
  SyntheticOptions options;
  options.d = d;
  options.rows = 3000;
  options.seed = seed;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  if (fixture == nullptr) return nullptr;
  DirectEvaluationLayer layer(&fixture->task);
  auto base = layer.EvaluateQueryValue(std::vector<double>(d, 0.0));
  if (!base.ok() || *base <= 0) return nullptr;
  fixture->task.constraint.target = *base / ratio;
  return fixture;
}

TEST(TopKTest, SelectsExactlyTargetTuples) {
  auto fixture = CountFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto result = RunTopK(fixture->task, Norm::L1());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->satisfied);
  EXPECT_DOUBLE_EQ(result->aggregate, fixture->task.constraint.target);
  EXPECT_DOUBLE_EQ(result->error, 0.0);  // COUNT is met by construction
  EXPECT_GT(result->qscore, 0.0);        // some refinement was necessary
}

TEST(TopKTest, EnclosingQueryAdmitsAtLeastK) {
  auto fixture = CountFixture(2, 0.4);
  ASSERT_NE(fixture, nullptr);
  auto result = RunTopK(fixture->task, Norm::L1());
  ASSERT_TRUE(result.ok());
  // The refined query defined by the per-dim max distances admits at least
  // the selected tuples (it is their bounding box).
  DirectEvaluationLayer layer(&fixture->task);
  auto admitted = layer.EvaluateQueryValue(result->pscores);
  ASSERT_TRUE(admitted.ok());
  EXPECT_GE(*admitted, fixture->task.constraint.target);
}

TEST(TopKTest, RefinementIsAtLeastAcquires) {
  // Figure 8c: Top-k's enclosing query refines at least as much as
  // ACQUIRE's answer (usually more: the tuples it picks are skewed).
  auto fixture = CountFixture(3, 0.4);
  ASSERT_NE(fixture, nullptr);
  auto topk = RunTopK(fixture->task, Norm::L1());
  ASSERT_TRUE(topk.ok());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto acq = RunAcquire(fixture->task, &layer, {});
  ASSERT_TRUE(acq.ok() && acq->satisfied);
  EXPECT_GE(topk->qscore, acq->queries[0].qscore * 0.5);
}

TEST(TopKTest, OnlyCountSupported) {
  SyntheticOptions options;
  options.agg = AggregateKind::kSum;
  options.target = 100.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  EXPECT_TRUE(RunTopK(fixture->task, Norm::L1()).status().IsUnsupported());
}

TEST(TopKTest, InfeasibleTargetReported) {
  auto fixture = CountFixture(1, 0.9);
  ASSERT_NE(fixture, nullptr);
  fixture->task.constraint.target =
      static_cast<double>(fixture->task.relation->num_rows()) * 2.0;
  auto result = RunTopK(fixture->task, Norm::L1());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
  EXPECT_GT(result->error, 0.0);
}

TEST(BinSearchTest, ReachesCountTarget) {
  auto fixture = CountFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer layer(&fixture->task);
  auto result = RunBinSearch(fixture->task, &layer, Norm::L1(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied) << "error=" << result->error;
  EXPECT_LE(result->error, 0.05);
  EXPECT_GT(result->queries_executed, 1u);
}

TEST(BinSearchTest, OrderSensitivityProducesDifferentAnswers) {
  // The paper's key instability claim (Figures 8b, 9b): refinement order
  // changes the refined query.
  auto fixture = CountFixture(3, 0.3);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer l1(&fixture->task);
  DirectEvaluationLayer l2(&fixture->task);
  BinSearchOptions forward;
  forward.order = {0, 1, 2};
  BinSearchOptions backward;
  backward.order = {2, 1, 0};
  auto r1 = RunBinSearch(fixture->task, &l1, Norm::L1(), forward);
  auto r2 = RunBinSearch(fixture->task, &l2, Norm::L1(), backward);
  ASSERT_TRUE(r1.ok() && r2.ok());
  // Different predicates got refined.
  EXPECT_NE(r1->pscores, r2->pscores);
}

TEST(BinSearchTest, InvalidOrderRejected) {
  auto fixture = CountFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer layer(&fixture->task);
  BinSearchOptions options;
  options.order = {0};  // wrong length
  EXPECT_FALSE(RunBinSearch(fixture->task, &layer, Norm::L1(), options).ok());
}

TEST(BinSearchTest, ExhaustsPredicatesWhenTargetIsFar) {
  auto fixture = CountFixture(2, 0.9);
  ASSERT_NE(fixture, nullptr);
  fixture->task.constraint.target =
      static_cast<double>(fixture->task.relation->num_rows());
  DirectEvaluationLayer layer(&fixture->task);
  auto result = RunBinSearch(fixture->task, &layer, Norm::L1(), {});
  ASSERT_TRUE(result.ok());
  // It must fully refine everything trying to reach the whole relation.
  EXPECT_GT(result->pscores[0], 0.0);
}

TEST(TqGenTest, ConvergesToCountTarget) {
  auto fixture = CountFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer layer(&fixture->task);
  auto result = RunTqGen(fixture->task, &layer, Norm::L1(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied) << "error=" << result->error;
  EXPECT_LE(result->error, 0.05);
}

TEST(TqGenTest, QueryCountIsExponentialInDimensions) {
  // The defining cost property behind Figure 9a.
  TqGenOptions options;
  options.max_iterations = 2;
  uint64_t executed[3] = {0, 0, 0};
  for (size_t d = 1; d <= 3; ++d) {
    auto fixture = CountFixture(d, 0.99);
    ASSERT_NE(fixture, nullptr);
    // An unreachable target forces all iterations to run.
    fixture->task.constraint.target =
        static_cast<double>(fixture->task.relation->num_rows()) * 2.0;
    DirectEvaluationLayer layer(&fixture->task);
    auto result = RunTqGen(fixture->task, &layer, Norm::L1(), options);
    ASSERT_TRUE(result.ok());
    executed[d - 1] = result->queries_executed;
  }
  EXPECT_EQ(executed[0], 2u * 5u);
  EXPECT_EQ(executed[1], 2u * 25u);
  EXPECT_EQ(executed[2], 2u * 125u);
}

TEST(TqGenTest, InvalidPartitionsRejected) {
  auto fixture = CountFixture(1, 0.5);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer layer(&fixture->task);
  TqGenOptions options;
  options.partitions_per_dim = 1;
  EXPECT_FALSE(RunTqGen(fixture->task, &layer, Norm::L1(), options).ok());
}

TEST(BaselineComparisonTest, AcquireRefinementIsCompetitive) {
  // Headline claim: ACQUIRE's refinement scores beat the baselines'.
  auto fixture = CountFixture(3, 0.4, /*seed=*/7);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer acq_layer(&fixture->task, /*pool=*/nullptr);
  auto acq = RunAcquire(fixture->task, &acq_layer, {});
  ASSERT_TRUE(acq.ok() && acq->satisfied);
  DirectEvaluationLayer tq_layer(&fixture->task);
  auto tq = RunTqGen(fixture->task, &tq_layer, Norm::L1(), {});
  ASSERT_TRUE(tq.ok());
  // TQGen ignores proximity, so ACQUIRE should not be (much) worse.
  EXPECT_LE(acq->queries[0].qscore, tq->qscore * 1.5 + 1e-9);
}

}  // namespace
}  // namespace acquire
