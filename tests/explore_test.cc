#include "core/explore.h"

#include <gtest/gtest.h>
#include <cmath>

#include "core/expand.h"
#include "exec/parallel_evaluation.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

// The load-bearing property of the Explore phase (Section 5): the
// incremental aggregate of a grid query — assembled from one cell query
// plus stored sub-aggregates via Eq. 17 — must equal the full re-execution
// of the same refined query.
class ExploreTest : public ::testing::TestWithParam<
                        std::tuple<size_t, AggregateKind>> {};

TEST_P(ExploreTest, IncrementalEqualsFullReexecution) {
  auto [d, agg] = GetParam();
  SyntheticOptions options;
  options.d = d;
  options.agg = agg;
  options.rows = 1500;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  AcqTask& task = fixture->task;

  RefinedSpace space(&task, 12.0, Norm::L1());
  ParallelEvaluationLayer layer(&task, /*pool=*/nullptr);
  ASSERT_TRUE(layer.Prepare().ok());
  Explorer explorer(&space, &layer);

  DirectEvaluationLayer reference(&task);
  BfsGenerator gen(&space);
  GridCoord coord;
  for (int i = 0; i < 120 && gen.Next(&coord); ++i) {
    auto incremental = explorer.ComputeAggregate(coord);
    ASSERT_TRUE(incremental.ok());
    auto full = reference.EvaluateBox(space.QueryBox(coord));
    ASSERT_TRUE(full.ok());
    double expected = task.agg.ops->Final(*full);
    EXPECT_NEAR(*incremental, expected,
                1e-9 * std::max(1.0, std::fabs(expected)))
        << "coord #" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndAggregates, ExploreTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(AggregateKind::kCount,
                                         AggregateKind::kSum,
                                         AggregateKind::kMin,
                                         AggregateKind::kMax,
                                         AggregateKind::kAvg)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_" +
             AggregateKindToString(std::get<1>(info.param));
    });

TEST(ExplorerTest, OneCellExecutionPerCoordinate) {
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  Explorer explorer(&space, &layer);

  BfsGenerator gen(&space);
  GridCoord coord;
  size_t investigated = 0;
  for (; investigated < 50 && gen.Next(&coord); ++investigated) {
    ASSERT_TRUE(explorer.ComputeAggregate(coord).ok());
  }
  EXPECT_EQ(explorer.cell_queries(), investigated);
  EXPECT_EQ(explorer.store().size(), investigated);

  // Re-computing an already-investigated coordinate costs nothing new.
  ASSERT_TRUE(explorer.ComputeAggregate(GridCoord(2, 0)).ok());
  EXPECT_EQ(explorer.cell_queries(), investigated);
}

TEST(ExplorerTest, OutOfOrderRequestFillsPredecessorsOnce) {
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  Explorer explorer(&space, &layer);

  // Jump straight to (3, 2) without visiting anything below it.
  auto value = explorer.ComputeAggregate({3, 2});
  ASSERT_TRUE(value.ok());
  // The whole downset (4 x 3 coordinates) was filled, each exactly once.
  EXPECT_EQ(explorer.cell_queries(), 12u);
  DirectEvaluationLayer reference(&fixture->task);
  auto full = reference.EvaluateBox(space.QueryBox({3, 2}));
  ASSERT_TRUE(full.ok());
  EXPECT_NEAR(*value, fixture->task.agg.ops->Final(*full), 1e-9);
}

TEST(ExplorerTest, ShellOrderWorksDespiteInShellDependencies) {
  // (1,1) is requested before (0,1) under shell order; the explorer must
  // still produce correct values via on-demand predecessor fill.
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::LInf());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  Explorer explorer(&space, &layer);
  DirectEvaluationLayer reference(&fixture->task);

  ShellGenerator gen(&space);
  GridCoord coord;
  for (int i = 0; i < 60 && gen.Next(&coord); ++i) {
    auto incremental = explorer.ComputeAggregate(coord);
    ASSERT_TRUE(incremental.ok());
    auto full = reference.EvaluateBox(space.QueryBox(coord));
    ASSERT_TRUE(full.ok());
    EXPECT_NEAR(*incremental, fixture->task.agg.ops->Final(*full), 1e-9);
  }
}

TEST(AggregateStoreTest, InsertFindRoundTrip) {
  AggregateStore store;
  store.Configure(/*d=*/2, /*state_width=*/1);
  EXPECT_EQ(store.Find({1, 2}), nullptr);
  double* block = store.Insert({1, 2});
  ASSERT_NE(block, nullptr);
  // d + 1 = 3 states of width 1, zero-initialized on insert.
  EXPECT_EQ(store.block_width(), 3u);
  EXPECT_DOUBLE_EQ(block[2], 0.0);
  block[0] = 1.0;
  block[1] = 2.0;
  block[2] = 3.0;
  const double* found = store.Find({1, 2});
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found[2], 3.0);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find({2, 1}), nullptr);
}

TEST(AggregateStoreTest, SurvivesRehashAndArenaGrowth) {
  AggregateStore store;
  store.Configure(/*d=*/3, /*state_width=*/2);
  store.Reserve(16);  // deliberately too small for the 1000 inserts below
  for (int32_t i = 0; i < 1000; ++i) {
    GridCoord c{i, i % 7, i % 13};
    ASSERT_EQ(store.Find(c), nullptr) << i;
    double* block = store.Insert(c);
    for (size_t j = 0; j < store.block_width(); ++j) {
      block[j] = static_cast<double>(i) + 0.25 * static_cast<double>(j);
    }
  }
  EXPECT_EQ(store.size(), 1000u);
  for (int32_t i = 0; i < 1000; ++i) {
    const double* block = store.Find({i, i % 7, i % 13});
    ASSERT_NE(block, nullptr) << i;
    for (size_t j = 0; j < store.block_width(); ++j) {
      EXPECT_DOUBLE_EQ(block[j],
                       static_cast<double>(i) + 0.25 * static_cast<double>(j));
    }
  }
}

}  // namespace
}  // namespace acquire
