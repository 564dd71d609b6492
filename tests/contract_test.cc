#include "core/contract.h"

#include <gtest/gtest.h>
#include <cmath>

#include "exec/parallel_evaluation.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

// Fixture whose original query overshoots: bound 70 over [0, 100] keeps
// ~70% per dim; target asks for less.
std::unique_ptr<test_util::SyntheticTask> OvershootFixture(size_t d,
                                                           double keep) {
  SyntheticOptions options;
  options.d = d;
  options.rows = 3000;
  options.bound = 70.0;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  if (fixture == nullptr) return nullptr;
  DirectEvaluationLayer probe(&fixture->task);
  double base =
      probe.EvaluateQueryValue(std::vector<double>(d, 0.0)).value_or(0.0);
  fixture->task.constraint.target = base * keep;
  return fixture;
}

TEST(ContractionDimTest, NeededPScoreMeasuresSlackComplement) {
  auto t = std::make_shared<Table>("t", Schema({{"x", DataType::kDouble, ""}}));
  for (double v : {10.0, 50.0, 70.0, 80.0}) {
    ASSERT_TRUE(t->AppendRow({Value(v)}).ok());
  }
  // Original: x <= 70 with width 70 (domain min 0).
  ContractionDim dim("x", /*is_upper=*/true, 70.0, /*width=*/70.0);
  ASSERT_TRUE(dim.Bind(t->schema()).ok());
  // slack(10) = 60/70*100 = 85.7 -> needed' = 14.3.
  EXPECT_NEAR(dim.NeededPScore(*t, 0), 100.0 - 60.0 / 70.0 * 100.0, 1e-9);
  EXPECT_NEAR(dim.NeededPScore(*t, 1), 100.0 - 20.0 / 70.0 * 100.0, 1e-9);
  // On the bound: survives only zero contraction -> needed' = 100.
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*t, 2), 100.0);
  // Outside the original query: never admitted.
  EXPECT_TRUE(std::isinf(dim.NeededPScore(*t, 3)));
}

TEST(ContractionDimTest, ContractedBoundAndDescribe) {
  ContractionDim dim("x", true, 70.0, 70.0);
  EXPECT_DOUBLE_EQ(dim.ContractedBound(100.0), 70.0);  // no contraction
  EXPECT_DOUBLE_EQ(dim.ContractedBound(0.0), 0.0);     // full contraction
  EXPECT_DOUBLE_EQ(dim.ContractedBound(50.0), 35.0);
  EXPECT_EQ(dim.DescribeAt(50.0), "x <= 35");
  EXPECT_EQ(dim.label(), "x <= 70");
}

TEST(ContractionDimTest, LowerBoundDirection) {
  auto t = std::make_shared<Table>("t", Schema({{"x", DataType::kDouble, ""}}));
  ASSERT_TRUE(t->AppendRow({Value(90.0)}).ok());
  ASSERT_TRUE(t->AppendRow({Value(20.0)}).ok());
  // Original: x >= 30 over domain [30, 100]; width 70.
  ContractionDim dim("x", /*is_upper=*/false, 30.0, 70.0);
  ASSERT_TRUE(dim.Bind(t->schema()).ok());
  EXPECT_NEAR(dim.NeededPScore(*t, 0), 100.0 - 60.0 / 70.0 * 100.0, 1e-9);
  EXPECT_TRUE(std::isinf(dim.NeededPScore(*t, 1)));
  EXPECT_DOUBLE_EQ(dim.ContractedBound(0.0), 100.0);
}

TEST(MakeContractionTaskTest, WrapsNumericDims) {
  auto fixture = OvershootFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
  EXPECT_EQ(contract->d(), 2u);
  EXPECT_EQ(contract->relation.get(), fixture->task.relation.get());
  EXPECT_DOUBLE_EQ(contract->dims[0]->MaxPScore(), 100.0);
}

TEST(RunAcquireContractTest, ShrinksCountToTarget) {
  auto fixture = OvershootFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  ParallelEvaluationLayer layer(&*contract, /*pool=*/nullptr);
  AcquireOptions options;
  options.gamma = 16.0;  // step 8 keeps the bounded grid small
  options.delta = 0.1;
  auto result = RunAcquireContract(*contract, &layer, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->satisfied);
  for (const RefinedQuery& q : result->queries) {
    EXPECT_LE(q.error, options.delta);
    EXPECT_NEAR(q.aggregate, contract->constraint.target,
                options.delta * contract->constraint.target + 1e-9);
    // Contraction amounts are reported, and some dimension did contract.
    double total = 0.0;
    for (double c : q.pscores) {
      EXPECT_GE(c, -1e-9);
      total += c;
    }
    EXPECT_GT(total, 0.0);
  }
}

TEST(RunAcquireContractTest, MinimalContractionComesFirst) {
  auto fixture = OvershootFixture(1, 0.6);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  ParallelEvaluationLayer layer(&*contract, /*pool=*/nullptr);
  AcquireOptions options;
  options.gamma = 5.0;
  options.delta = 0.1;
  auto result = RunAcquireContract(*contract, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  // The contracted bound is below the original but as high as possible:
  // contracting further than the first hit layer is never reported.
  for (size_t i = 1; i < result->queries.size(); ++i) {
    EXPECT_GE(result->queries[i].qscore, result->queries[0].qscore - 1e-9);
  }
}

TEST(RunAcquireContractTest, RepartitionRecoversFromCoarseGrid) {
  // One dimension, coarse grid: the contraction lattice jumps across the
  // equality target and the bisection inside the skipped-over band must
  // recover it.
  auto fixture = OvershootFixture(1, 0.2);  // keep only 20% of the results
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  ParallelEvaluationLayer layer(&*contract, /*pool=*/nullptr);
  AcquireOptions options;
  options.gamma = 25.0;  // step 25 in 1-D: guaranteed to overshoot
  options.delta = 0.02;
  options.repartition_iters = 20;
  auto result = RunAcquireContract(*contract, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied) << result->best.ToString();
  bool has_offgrid = false;
  for (const RefinedQuery& q : result->queries) {
    EXPECT_LE(q.error, options.delta);
    has_offgrid = has_offgrid || q.coord.empty();
  }
  EXPECT_TRUE(has_offgrid);
}

TEST(RunAcquireContractTest, RejectsNonEqualityConstraints) {
  auto fixture = OvershootFixture(1, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  contract->constraint.op = ConstraintOp::kGe;
  ParallelEvaluationLayer layer(&*contract, /*pool=*/nullptr);
  EXPECT_TRUE(RunAcquireContract(*contract, &layer, {}).status().IsUnsupported());
}

TEST(MakeContractionTaskTest, RejectsJoinDims) {
  auto fixture = OvershootFixture(1, 0.5);
  ASSERT_NE(fixture, nullptr);
  fixture->task.dims.push_back(
      std::make_unique<JoinDim>("c0", "c1", 10.0));
  ASSERT_TRUE(fixture->task.dims.back()
                  ->Bind(fixture->task.relation->schema())
                  .ok());
  EXPECT_TRUE(MakeContractionTask(fixture->task).status().IsUnsupported());
}

}  // namespace
}  // namespace acquire
