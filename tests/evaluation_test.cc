#include "exec/evaluation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "exec/parallel_evaluation.h"
#include "exec/planner.h"
#include "workload/tpch_gen.h"

namespace acquire {
namespace {

TEST(PScoreLevelTest, ZeroAndPositive) {
  EXPECT_EQ(PScoreLevel(0.0, 3.0), 0);
  EXPECT_EQ(PScoreLevel(-1.0, 3.0), 0);
  EXPECT_EQ(PScoreLevel(0.1, 3.0), 1);
  EXPECT_EQ(PScoreLevel(3.0, 3.0), 1);   // boundary belongs to the level
  EXPECT_EQ(PScoreLevel(3.0001, 3.0), 2);
  EXPECT_EQ(PScoreLevel(9.0, 3.0), 3);
}

TEST(PScoreLevelTest, UnreachableIsMinusOne) {
  EXPECT_EQ(PScoreLevel(std::numeric_limits<double>::infinity(), 3.0), -1);
}

TEST(PScoreLevelTest, MatchesCeilOfQuotient) {
  // PScoreLevel computes the ceiling without std::ceil; it must agree with
  // it on whole and fractional quotients, tiny ones and ones past 2^53.
  Rng rng(3);
  std::vector<std::pair<double, double>> cases = {
      {std::numeric_limits<double>::denorm_min(), 3.0},
      {std::numeric_limits<double>::epsilon(), 0.25},
      {std::nextafter(6.0, 0.0), 3.0},
      {std::nextafter(6.0, 7.0), 3.0},
      {9007199254740993.0, 1.0},
      {1e17, 3.0},
      {0.3, 0.1}};
  for (int k = 0; k < 10000; ++k) {
    const double step = rng.NextDouble(0.01, 10.0);
    cases.push_back({step * static_cast<double>(rng.NextInt(1, 1000)), step});
    cases.push_back({rng.NextDouble(0.0, 1e6), step});
  }
  for (const auto& [needed, step] : cases) {
    EXPECT_EQ(PScoreLevel(needed, step),
              static_cast<int64_t>(std::ceil(needed / step)))
        << needed << " / " << step;
  }
}

TEST(CellRangeTest, InverseOfLevel) {
  PScoreRange r0 = CellRangeForLevel(0, 3.0);
  EXPECT_TRUE(r0.Admits(0.0));
  EXPECT_FALSE(r0.Admits(0.5));
  PScoreRange r2 = CellRangeForLevel(2, 3.0);
  EXPECT_FALSE(r2.Admits(3.0));
  EXPECT_TRUE(r2.Admits(3.5));
  EXPECT_TRUE(r2.Admits(6.0));
  EXPECT_FALSE(r2.Admits(6.5));
}

TEST(PScoreRangeTest, AdmitsSemantics) {
  PScoreRange full{-1.0, 10.0};
  EXPECT_TRUE(full.Admits(0.0));
  EXPECT_TRUE(full.Admits(10.0));
  EXPECT_FALSE(full.Admits(10.1));
  PScoreRange band{5.0, 10.0};
  EXPECT_FALSE(band.Admits(5.0));  // open below
  EXPECT_TRUE(band.Admits(5.1));
}

TEST(GridCoordHashTest, DistinctCoordsDistinctHashesMostly) {
  GridCoordHash hash;
  EXPECT_NE(hash({0, 1}), hash({1, 0}));
  EXPECT_EQ(hash({2, 3}), hash({2, 3}));
}

class EvaluationLayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions options;
    options.lineitems = 5000;
    options.suppliers = 50;
    options.parts = 100;
    ASSERT_TRUE(GenerateTpch(options, &catalog_).ok());

    QuerySpec spec;
    spec.tables = {"lineitem"};
    spec.predicates.push_back(SelectPredicateSpec{
        "l_quantity", CompareOp::kLe, 15.0, true, 1.0, {}});
    spec.predicates.push_back(SelectPredicateSpec{
        "l_extendedprice", CompareOp::kLe, 30000.0, true, 1.0, {}});
    spec.agg_kind = AggregateKind::kSum;
    spec.agg_column = "l_extendedprice";
    spec.target = 1.0;
    auto task = PlanAcqTask(catalog_, spec);
    ASSERT_TRUE(task.ok()) << task.status().ToString();
    task_ = std::make_unique<AcqTask>(std::move(task).value());
  }

  Catalog catalog_;
  std::unique_ptr<AcqTask> task_;
};

TEST_F(EvaluationLayerTest, DirectAndCachedAgreeOnRandomBoxes) {
  DirectEvaluationLayer direct(task_.get());
  ParallelEvaluationLayer cached(task_.get(), /*pool=*/nullptr);
  ASSERT_TRUE(cached.Prepare().ok());
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PScoreRange> box(task_->d());
    for (auto& r : box) {
      double a = rng.NextDouble(-1.0, 60.0);
      double b = rng.NextDouble(0.0, 80.0);
      r.lo = std::min(a, b);
      r.hi = std::max(a, b) + 0.1;
    }
    auto s1 = direct.EvaluateBox(box);
    auto s2 = cached.EvaluateBox(box);
    ASSERT_TRUE(s1.ok() && s2.ok());
    EXPECT_DOUBLE_EQ(task_->agg.ops->Final(*s1), task_->agg.ops->Final(*s2))
        << "trial " << trial;
  }
}

TEST_F(EvaluationLayerTest, FullQueryAtZeroMatchesOriginalPredicates) {
  DirectEvaluationLayer layer(task_.get());
  auto value = layer.EvaluateQueryValue({0.0, 0.0});
  ASSERT_TRUE(value.ok());
  // Brute-force the original query.
  const Table& rel = *task_->relation;
  size_t qty = rel.schema().FieldIndex("l_quantity").value();
  size_t price = rel.schema().FieldIndex("l_extendedprice").value();
  double expected = 0.0;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    if (rel.column(qty).GetDouble(r) <= 15.0 &&
        rel.column(price).GetDouble(r) <= 30000.0) {
      expected += rel.column(price).GetDouble(r);
    }
  }
  EXPECT_NEAR(*value, expected, 1e-6 * std::max(1.0, expected));
}

TEST_F(EvaluationLayerTest, WiderBoxesAreMonotone) {
  ParallelEvaluationLayer layer(task_.get(), /*pool=*/nullptr);
  double prev = 0.0;
  for (double p = 0.0; p <= 50.0; p += 10.0) {
    auto value = layer.EvaluateQueryValue({p, p});
    ASSERT_TRUE(value.ok());
    EXPECT_GE(*value, prev);  // SUM of positive values grows with the query
    prev = *value;
  }
}

TEST_F(EvaluationLayerTest, StatsCountQueriesAndTuples) {
  DirectEvaluationLayer layer(task_.get());
  ASSERT_TRUE(layer.EvaluateQueryValue({0.0, 0.0}).ok());
  ASSERT_TRUE(layer.EvaluateQueryValue({5.0, 5.0}).ok());
  EXPECT_EQ(layer.stats().queries, 2u);
  EXPECT_EQ(layer.stats().tuples_scanned, 2 * task_->relation->num_rows());
  layer.ResetStats();
  EXPECT_EQ(layer.stats().queries, 0u);
}

TEST_F(EvaluationLayerTest, WrongArityRejected) {
  DirectEvaluationLayer layer(task_.get());
  auto r = layer.EvaluateBox({PScoreRange{-1.0, 0.0}});
  EXPECT_FALSE(r.ok());
}

TEST_F(EvaluationLayerTest, ComputeNeededMatchesDims) {
  std::vector<double> needed;
  ComputeNeeded(*task_, 0, &needed);
  ASSERT_EQ(needed.size(), 2u);
  EXPECT_DOUBLE_EQ(needed[0],
                   task_->dims[0]->NeededPScore(*task_->relation, 0));
  EXPECT_DOUBLE_EQ(needed[1],
                   task_->dims[1]->NeededPScore(*task_->relation, 0));
}

}  // namespace
}  // namespace acquire
