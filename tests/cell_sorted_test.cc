// Structural tests for the cell-sorted CSR backend: layout invariants,
// the three query paths (cell probe, aligned box walk, off-grid scan), the
// native batched cell path, unreachable-row exclusion, and the backend
// factory that constructs it. GridIndexTest checks the same layer as the
// Section 7.4 grid index on a planned TPC-H lineitem task.

#include <gtest/gtest.h>

#include <cmath>

#include "acquire.h"
#include "common/random.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

TEST(CellSortedTest, RejectsNonPositiveStep) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 0.0);
  EXPECT_FALSE(layer.Prepare().ok());
}

TEST(CellSortedTest, CellProbeTouchesOneCellNotTheData) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  EXPECT_GT(layer.num_cells(), 0u);

  // A cell query costs one binary search, not a scan: tuples_scanned
  // counts the single key looked at, regardless of n.
  std::vector<PScoreRange> cell = {CellRangeForLevel(2, step),
                                   CellRangeForLevel(3, step)};
  GridCoord coord;
  ASSERT_TRUE(layer.IsCellAligned(cell, &coord));
  EXPECT_EQ(coord, (GridCoord{2, 3}));
  layer.ResetStats();
  ASSERT_TRUE(layer.EvaluateBox(cell).ok());
  EXPECT_EQ(layer.stats().tuples_scanned, 1u);
}

TEST(CellSortedTest, AlignedBoxVisitsOnlyCandidateCells) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());

  // Box covering levels 0..3 on both dimensions: the walk may touch at
  // most the populated cells, never the rows.
  std::vector<PScoreRange> box = {PScoreRange{-1.0, 4 * step},
                                  PScoreRange{-1.0, 4 * step}};
  layer.ResetStats();
  auto got = layer.EvaluateBox(box);
  ASSERT_TRUE(got.ok());
  EXPECT_LE(layer.stats().tuples_scanned, layer.num_cells());

  DirectEvaluationLayer reference(&fixture->task);
  auto expected = reference.EvaluateBox(box);
  ASSERT_TRUE(expected.ok());
  const AggregateOps& ops = *fixture->task.agg.ops;
  EXPECT_DOUBLE_EQ(ops.Final(*got), ops.Final(*expected));
}

TEST(CellSortedTest, OffGridBoxFallsBackToExactScan) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 10000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  ASSERT_TRUE(layer.Prepare().ok());

  std::vector<PScoreRange> box = {PScoreRange{-1.0, 7.3},
                                  PScoreRange{2.1, 13.9}};
  GridCoord coord;
  EXPECT_FALSE(layer.IsCellAligned(box, &coord));
  auto got = layer.EvaluateBox(box);
  DirectEvaluationLayer reference(&fixture->task);
  auto expected = reference.EvaluateBox(box);
  ASSERT_TRUE(got.ok() && expected.ok());
  const AggregateOps& ops = *fixture->task.agg.ops;
  EXPECT_NEAR(ops.Final(*got), ops.Final(*expected),
              1e-9 * std::max(1.0, std::fabs(ops.Final(*expected))));
}

TEST(CellSortedTest, ExcludesUnreachableRows) {
  // A tight per-predicate refinement cap makes every row needing more
  // than the cap unreachable; those rows must be dropped from the layout
  // and must not appear in any box answer.
  SyntheticOptions options;
  options.d = 1;
  options.rows = 5000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double cap = 10.0;
  auto* dim = dynamic_cast<NumericDim*>(fixture->task.dims[0].get());
  ASSERT_NE(dim, nullptr);
  dim->set_max_refinement(cap);

  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  ASSERT_TRUE(layer.Prepare().ok());
  EXPECT_GT(layer.unreachable_rows(), 0u);
  EXPECT_LT(layer.unreachable_rows(), options.rows);

  // Full-space box == everything reachable; must match the direct layer
  // (which recomputes the capped needed PScores per call).
  DirectEvaluationLayer reference(&fixture->task);
  std::vector<PScoreRange> everything = {PScoreRange{-1.0, 1e9}};
  auto got = layer.EvaluateBox(everything);
  auto expected = reference.EvaluateBox(everything);
  ASSERT_TRUE(got.ok() && expected.ok());
  const AggregateOps& ops = *fixture->task.agg.ops;
  EXPECT_DOUBLE_EQ(ops.Final(*got), ops.Final(*expected));
}

class GridIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions options;
    options.lineitems = 4000;
    options.suppliers = 50;
    options.parts = 100;
    ASSERT_TRUE(GenerateTpch(options, &catalog_).ok());

    QuerySpec spec;
    spec.tables = {"lineitem"};
    spec.predicates.push_back(SelectPredicateSpec{
        "l_quantity", CompareOp::kLe, 15.0, true, 1.0, {}});
    spec.predicates.push_back(SelectPredicateSpec{
        "l_shipdays", CompareOp::kLe, 700.0, true, 1.0, {}});
    spec.agg_kind = AggregateKind::kCount;
    spec.target = 1.0;
    auto task = PlanAcqTask(catalog_, spec);
    ASSERT_TRUE(task.ok()) << task.status().ToString();
    task_ = std::make_unique<AcqTask>(std::move(task).value());
  }

  Catalog catalog_;
  std::unique_ptr<AcqTask> task_;
  static constexpr double kStep = 5.0;
};

TEST_F(GridIndexTest, PrepareBuildsSparseCells) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  ASSERT_TRUE(index.Prepare().ok());
  EXPECT_GT(index.num_cells(), 0u);
  // Cell count is bounded by both tuples and grid volume.
  EXPECT_LE(index.num_cells(), task_->relation->num_rows());
}

TEST_F(GridIndexTest, CellAlignmentDetection) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  GridCoord coord;
  EXPECT_TRUE(index.IsCellAligned(
      {PScoreRange{-1.0, 0.0}, PScoreRange{5.0, 10.0}}, &coord));
  EXPECT_EQ(coord, (GridCoord{0, 2}));
  // Not a single cell: spans two levels.
  EXPECT_FALSE(index.IsCellAligned(
      {PScoreRange{0.0, 10.0}, PScoreRange{5.0, 10.0}}, &coord));
  // Off-grid bound.
  EXPECT_FALSE(index.IsCellAligned(
      {PScoreRange{-1.0, 0.0}, PScoreRange{5.5, 10.5}}, &coord));
}

TEST_F(GridIndexTest, CellQueriesMatchDirectLayer) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  DirectEvaluationLayer direct(task_.get());
  for (int32_t u0 = 0; u0 <= 4; ++u0) {
    for (int32_t u1 = 0; u1 <= 4; ++u1) {
      std::vector<PScoreRange> cell = {CellRangeForLevel(u0, kStep),
                                       CellRangeForLevel(u1, kStep)};
      auto a = index.EvaluateBox(cell);
      auto b = direct.EvaluateBox(cell);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_DOUBLE_EQ(task_->agg.ops->Final(*a), task_->agg.ops->Final(*b))
          << u0 << "," << u1;
    }
  }
}

TEST_F(GridIndexTest, AlignedBoxQueriesMatchDirectLayer) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  DirectEvaluationLayer direct(task_.get());
  // Full refined queries at grid corners (lo = from zero).
  for (int32_t u = 0; u <= 6; u += 2) {
    std::vector<PScoreRange> box = {
        PScoreRange{-1.0, u * kStep}, PScoreRange{-1.0, (u + 2) * kStep}};
    auto a = index.EvaluateBox(box);
    auto b = direct.EvaluateBox(box);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_DOUBLE_EQ(task_->agg.ops->Final(*a), task_->agg.ops->Final(*b));
  }
}

TEST_F(GridIndexTest, UnalignedBoxFallsBackToScanAndMatches) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  DirectEvaluationLayer direct(task_.get());
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<PScoreRange> box(2);
    for (auto& r : box) {
      r.lo = -1.0;
      r.hi = rng.NextDouble(0.0, 40.0);  // almost surely off-grid
    }
    auto a = index.EvaluateBox(box);
    auto b = direct.EvaluateBox(box);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_DOUBLE_EQ(task_->agg.ops->Final(*a), task_->agg.ops->Final(*b));
  }
}

TEST_F(GridIndexTest, EmptyCellAnsweredWithoutTouchingData) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  ASSERT_TRUE(index.Prepare().ok());
  index.ResetStats();
  // A far-out cell that is surely empty.
  std::vector<PScoreRange> cell = {CellRangeForLevel(400, kStep),
                                   CellRangeForLevel(400, kStep)};
  auto got = index.EvaluateBox(cell);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(task_->agg.ops->Final(*got), 0.0);
  EXPECT_EQ(index.stats().queries, 1u);
  EXPECT_EQ(index.stats().tuples_scanned, 1u);  // one key looked at
}

TEST_F(GridIndexTest, EvaluateCellsMatchesPerCellEvaluateBox) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  CellSortedEvaluationLayer reference(task_.get(), kStep);
  // A batch mixing populated cells, empty cells, duplicates and an
  // unsorted arrival order.
  std::vector<GridCoord> coords;
  for (int32_t u0 = 6; u0 >= 0; --u0) {
    for (int32_t u1 = 0; u1 <= 6; ++u1) coords.push_back({u0, u1});
  }
  coords.push_back({3, 3});     // duplicate of an earlier coordinate
  coords.push_back({100, 90});  // far-out empty cell
  coords.push_back({0, 0});     // duplicate, out of order
  auto batch = index.EvaluateCells(coords.data(), coords.size(), kStep);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    std::vector<PScoreRange> cell = {CellRangeForLevel(coords[i][0], kStep),
                                     CellRangeForLevel(coords[i][1], kStep)};
    auto expected = reference.EvaluateBox(cell);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*batch)[i], *expected) << coords[i][0] << "," << coords[i][1];
  }
}

TEST_F(GridIndexTest, EvaluateCellsBatchUsesOneProbePerCell) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  ASSERT_TRUE(index.Prepare().ok());
  index.ResetStats();
  std::vector<GridCoord> coords;
  for (int32_t u = 0; u < 32; ++u) coords.push_back({u, u});
  ASSERT_TRUE(index.EvaluateCells(coords.data(), coords.size(), kStep).ok());
  // The native path looks up one key per requested cell -- no box
  // decomposition, no matrix scan.
  EXPECT_EQ(index.stats().queries, coords.size());
  EXPECT_EQ(index.stats().tuples_scanned, coords.size());
}

TEST_F(GridIndexTest, EvaluateCellsLargeBatchParallelMatchesSerial) {
  ThreadPool one_worker(1);
  ThreadPool four_workers(4);
  CellSortedEvaluationLayer serial(task_.get(), kStep, &one_worker);
  CellSortedEvaluationLayer index(task_.get(), kStep, &four_workers);
  // Large enough to sweep in chunks on the pool, with many duplicates
  // spanning chunk boundaries; results must stay in input order and
  // bit-identical to the one-worker sweep.
  std::vector<GridCoord> coords;
  coords.reserve(10000);
  for (int32_t i = 0; i < 10000; ++i) coords.push_back({i % 7, (i / 3) % 7});
  auto batch = index.EvaluateCells(coords.data(), coords.size(), kStep);
  auto swept = serial.EvaluateCells(coords.data(), coords.size(), kStep);
  ASSERT_TRUE(batch.ok() && swept.ok());
  EXPECT_EQ(*batch, *swept);
  for (size_t i = 0; i < coords.size(); i += 997) {
    std::vector<PScoreRange> cell = {CellRangeForLevel(coords[i][0], kStep),
                                     CellRangeForLevel(coords[i][1], kStep)};
    auto expected = serial.EvaluateBox(cell);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*batch)[i], *expected);
  }
}

TEST_F(GridIndexTest, EvaluateCellsForeignStepFallsBack) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  DirectEvaluationLayer direct(task_.get());
  const double foreign = 7.5;  // not this index's step
  std::vector<GridCoord> coords = {{0, 0}, {1, 2}, {2, 1}};
  auto batch = index.EvaluateCells(coords.data(), coords.size(), foreign);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const AggregateOps& ops = *task_->agg.ops;
  for (size_t i = 0; i < coords.size(); ++i) {
    std::vector<PScoreRange> cell = {
        CellRangeForLevel(coords[i][0], foreign),
        CellRangeForLevel(coords[i][1], foreign)};
    auto expected = direct.EvaluateBox(cell);
    ASSERT_TRUE(expected.ok());
    EXPECT_DOUBLE_EQ(ops.Final((*batch)[i]), ops.Final(*expected));
  }
}

TEST_F(GridIndexTest, EvaluateCellsRejectsWrongDimensionality) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  std::vector<GridCoord> coords = {{1, 2, 3}};  // task has d = 2
  EXPECT_FALSE(
      index.EvaluateCells(coords.data(), coords.size(), kStep).ok());
}

TEST_F(GridIndexTest, EvaluateCellsEmptyBatch) {
  CellSortedEvaluationLayer index(task_.get(), kStep);
  auto batch = index.EvaluateCells(nullptr, 0, kStep);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST_F(GridIndexTest, InvalidStepRejected) {
  CellSortedEvaluationLayer index(task_.get(), 0.0);
  EXPECT_FALSE(index.Prepare().ok());
}

TEST(BackendFactoryTest, ResolvesEveryBackend) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  for (EvalBackend backend :
       {EvalBackend::kAuto, EvalBackend::kDirect, EvalBackend::kParallel,
        EvalBackend::kCellSorted}) {
    auto layer = MakeEvaluationLayer(&fixture->task, backend);
    ASSERT_TRUE(layer.ok()) << EvalBackendToString(backend);
    ASSERT_NE(layer->get(), nullptr);
    ASSERT_TRUE((*layer)->Prepare().ok()) << EvalBackendToString(backend);
  }
  // kAuto picks the cell-sorted backend.
  auto layer = MakeEvaluationLayer(&fixture->task, EvalBackend::kAuto);
  ASSERT_TRUE(layer.ok());
  EXPECT_NE(dynamic_cast<CellSortedEvaluationLayer*>(layer->get()), nullptr);
}

TEST(BackendFactoryTest, NameRoundTrip) {
  for (EvalBackend backend :
       {EvalBackend::kAuto, EvalBackend::kDirect, EvalBackend::kParallel,
        EvalBackend::kCellSorted}) {
    auto parsed = EvalBackendFromString(EvalBackendToString(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(EvalBackendFromString("postgres").ok());
  // Removed backends are unknown names, not aliases.
  EXPECT_EQ(EvalBackendFromString("gridindex").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EvalBackendFromString("cached").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BackendFactoryTest, ProcessAcqRunsOnTaskSelectedBackend) {
  // Every backend must drive the full Figure 2 pipeline to the same
  // refinement (COUNT answers are exact on all of them).
  SyntheticOptions options;
  options.d = 2;
  options.rows = 5000;
  options.bound = 10.0;
  options.target = 2000.0;
  options.op = ConstraintOp::kGe;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);

  AcquireOptions acq;
  auto reference = ProcessAcq(fixture->task, acq);
  ASSERT_TRUE(reference.ok());
  for (EvalBackend backend :
       {EvalBackend::kDirect, EvalBackend::kParallel,
        EvalBackend::kCellSorted}) {
    fixture->task.eval_backend = backend;
    auto outcome = ProcessAcq(fixture->task, acq);
    ASSERT_TRUE(outcome.ok()) << EvalBackendToString(backend);
    EXPECT_EQ(outcome->mode, reference->mode) << EvalBackendToString(backend);
    EXPECT_DOUBLE_EQ(outcome->result.best.aggregate,
                     reference->result.best.aggregate)
        << EvalBackendToString(backend);
    EXPECT_DOUBLE_EQ(outcome->result.best.qscore,
                     reference->result.best.qscore)
        << EvalBackendToString(backend);
  }
}

}  // namespace
}  // namespace acquire
