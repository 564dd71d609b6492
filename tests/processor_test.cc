#include "core/processor.h"

#include <gtest/gtest.h>

#include "exec/parallel_evaluation.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

std::unique_ptr<test_util::SyntheticTask> FixtureWithTargetFactor(
    double factor, ConstraintOp op = ConstraintOp::kEq) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 3000;
  options.op = op;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  if (fixture == nullptr) return nullptr;
  DirectEvaluationLayer probe(&fixture->task);
  double base = probe.EvaluateQueryValue({0.0, 0.0}).value_or(0.0);
  fixture->task.constraint.target = base * factor;
  return fixture;
}

TEST(ProcessAcqTest, OriginalSatisfiesShortCircuits) {
  auto fixture = FixtureWithTargetFactor(1.0);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto outcome = ProcessAcq(fixture->task, &layer, {});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->mode, AcqMode::kOriginalSatisfies);
  ASSERT_EQ(outcome->result.queries.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome->result.queries[0].qscore, 0.0);
  EXPECT_EQ(outcome->result.queries_explored, 1u);
  EXPECT_EQ(outcome->contraction_task, nullptr);
}

TEST(ProcessAcqTest, UndershootDispatchesToExpansion) {
  auto fixture = FixtureWithTargetFactor(1.8);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto outcome = ProcessAcq(fixture->task, &layer, {});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->mode, AcqMode::kExpanded);
  ASSERT_TRUE(outcome->result.satisfied);
  EXPECT_GT(outcome->result.queries[0].qscore, 0.0);
  EXPECT_LT(outcome->original_aggregate, fixture->task.constraint.target);
}

TEST(ProcessAcqTest, OvershootDispatchesToContraction) {
  auto fixture = FixtureWithTargetFactor(0.5);  // target = half the results
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  options.gamma = 16.0;
  options.delta = 0.1;
  auto outcome = ProcessAcq(fixture->task, &layer, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->mode, AcqMode::kContracted);
  ASSERT_NE(outcome->contraction_task, nullptr);
  ASSERT_TRUE(outcome->result.satisfied);
  EXPECT_NEAR(outcome->result.queries[0].aggregate,
              fixture->task.constraint.target,
              options.delta * fixture->task.constraint.target + 1e-9);
}

TEST(ProcessAcqTest, OvershootOfInequalityIsAlreadySatisfied) {
  // ">= target" with an overshooting original is simply satisfied.
  auto fixture = FixtureWithTargetFactor(0.5, ConstraintOp::kGe);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  auto outcome = ProcessAcq(fixture->task, &layer, {});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->mode, AcqMode::kOriginalSatisfies);
}

TEST(ProcessAcqTest, ModeNames) {
  EXPECT_STREQ(AcqModeToString(AcqMode::kOriginalSatisfies),
               "original-satisfies");
  EXPECT_STREQ(AcqModeToString(AcqMode::kExpanded), "expanded");
  EXPECT_STREQ(AcqModeToString(AcqMode::kContracted), "contracted");
}

TEST(ProcessAcqTest, MismatchedLayerRejected) {
  auto f1 = FixtureWithTargetFactor(1.5);
  auto f2 = FixtureWithTargetFactor(1.5);
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f2, nullptr);
  ParallelEvaluationLayer layer(&f2->task, /*pool=*/nullptr);
  EXPECT_FALSE(ProcessAcq(f1->task, &layer, {}).ok());
}

}  // namespace
}  // namespace acquire
