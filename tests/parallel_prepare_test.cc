// Bit-identity battery for the cell-sorted layout build
// (index/parallel_prepare.h). Every build is compared byte for byte with
// the brute-force oracle of layout_oracle.h. The battery sweeps pool widths,
// aggregate kinds and the edge cases of the radix sort: empty and fully
// unreachable inputs, one cell, epsilon needed values, levels that need
// several digit passes, and level tuples wider than one 64-bit key word.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "acquire.h"
#include "common/random.h"
#include "exec/eval_kernel.h"
#include "layout_oracle.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::OracleLayout;
using test_util::SyntheticOptions;

constexpr double kInf = std::numeric_limits<double>::infinity();

// A raw needed matrix with needed(row, i) and agg(row) given per entry.
NeededMatrix MakeMatrix(size_t rows, size_t d,
                        const std::function<double(size_t, size_t)>& needed,
                        const std::function<double(size_t)>& agg) {
  NeededMatrix raw;
  raw.rows = rows;
  raw.dims = d;
  raw.needed.resize(rows * d);
  raw.agg_values.resize(rows);
  for (size_t row = 0; row < rows; ++row) {
    for (size_t i = 0; i < d; ++i) raw.mutable_dim(i)[row] = needed(row, i);
    raw.agg_values[row] = agg(row);
  }
  return raw;
}

// Builds `raw` on 1-, 2- and 4-worker pools and checks each layout against
// the oracle. Returns the oracle for further checks.
CellSortedLayout ExpectOracleAtEveryPoolWidth(const NeededMatrix& raw,
                                              double step,
                                              const AggregateOps& ops) {
  CellSortedLayout oracle = OracleLayout(raw, step, ops);
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    CellSortedLayout built;
    Status status = BuildCellSortedLayout(raw, step, ops, &pool, &built);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(LayoutsBitIdentical(oracle, built))
        << threads << " threads, " << oracle.num_cells() << " oracle cells, "
        << built.num_cells() << " built cells";
  }
  return oracle;
}

NeededMatrix TaskMatrix(const AcqTask& task) {
  NeededMatrix raw;
  EXPECT_TRUE(BuildNeededMatrix(task, nullptr, &raw).ok());
  return raw;
}

// The pool builds against the sequential brute-force oracle.
TEST(ParallelPrepareTest, ParallelMatchesSequentialAcrossPoolWidths) {
  SyntheticOptions options;
  options.d = 3;
  options.rows = 100000;  // several chunks even on the 4-worker pool
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedLayout oracle = ExpectOracleAtEveryPoolWidth(
      TaskMatrix(fixture->task), 5.0, *fixture->task.agg.ops);
  EXPECT_GT(oracle.num_cells(), 1000u);
}

TEST(ParallelPrepareTest, BitIdenticalPerAggregateKind) {
  for (AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum,
                            AggregateKind::kAvg, AggregateKind::kMin,
                            AggregateKind::kMax}) {
    SCOPED_TRACE(AggregateKindToString(agg));
    SyntheticOptions options;
    options.d = 2;
    options.rows = 60000;
    options.agg = agg;
    auto fixture = MakeSyntheticTask(options);
    ASSERT_NE(fixture, nullptr);
    ExpectOracleAtEveryPoolWidth(TaskMatrix(fixture->task), 5.0,
                                 *fixture->task.agg.ops);
  }
}

TEST(ParallelPrepareTest, RejectsNonPositiveStep) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  NeededMatrix raw = TaskMatrix(fixture->task);
  CellSortedLayout out;
  EXPECT_FALSE(BuildCellSortedLayout(raw, 0.0, *fixture->task.agg.ops,
                                     nullptr, &out)
                   .ok());
}

TEST(ParallelPrepareTest, EmptyInput) {
  const NeededMatrix raw = MakeMatrix(
      0, 3, [](size_t, size_t) { return 0.0; }, [](size_t) { return 0.0; });
  CellSortedLayout oracle = ExpectOracleAtEveryPoolWidth(
      raw, 2.0, GetBuiltinOps(AggregateKind::kSum));
  EXPECT_EQ(oracle.num_cells(), 0u);
}

TEST(ParallelPrepareTest, AllRowsUnreachable) {
  // Every row is unreachable on one dimension or another.
  const NeededMatrix raw = MakeMatrix(
      50000, 3,
      [](size_t row, size_t i) { return i == row % 3 ? kInf : 1.5; },
      [](size_t row) { return static_cast<double>(row); });
  CellSortedLayout oracle = ExpectOracleAtEveryPoolWidth(
      raw, 2.0, GetBuiltinOps(AggregateKind::kSum));
  EXPECT_EQ(oracle.num_cells(), 0u);
  EXPECT_EQ(oracle.unreachable_rows, 50000u);
}

TEST(ParallelPrepareTest, SingleCell) {
  // Every reachable row in cell (1, 1); one row in five unreachable.
  const NeededMatrix raw = MakeMatrix(
      50000, 2,
      [](size_t row, size_t i) {
        return i == 1 && row % 5 == 0 ? kInf : 0.25 + (row % 7) * 0.25;
      },
      [](size_t row) { return 0.1 * static_cast<double>(row % 97); });
  CellSortedLayout oracle = ExpectOracleAtEveryPoolWidth(
      raw, 2.0, GetBuiltinOps(AggregateKind::kAvg));
  EXPECT_EQ(oracle.num_cells(), 1u);
  EXPECT_EQ(oracle.unreachable_rows, 10000u);
}

TEST(ParallelPrepareTest, StrictBoundEpsilonRows) {
  // A strict predicate leaves the rows on its bound an epsilon away from
  // the original query: they sit in level 1, next to the level-0 rows of
  // the original answer, and grid boundaries belong to the lower level.
  const double step = 3.0;
  const double eps = std::numeric_limits<double>::epsilon();
  const std::vector<double> values = {
      0.0, -0.0, -2.0, eps, 1e-12, std::nextafter(step, 0.0), step,
      std::nextafter(step, 10.0), 2 * step, 2 * step + 1e-9};
  Rng rng(7);
  std::vector<double> cells(60000 * 2);
  for (double& v : cells) v = values[rng.NextBounded(values.size())];
  const NeededMatrix raw = MakeMatrix(
      60000, 2, [&](size_t row, size_t i) { return cells[row * 2 + i]; },
      [](size_t row) { return static_cast<double>(row % 13); });
  CellSortedLayout oracle = ExpectOracleAtEveryPoolWidth(
      raw, step, GetBuiltinOps(AggregateKind::kMax));
  // Levels 0..3 on both dimensions are populated.
  EXPECT_EQ(oracle.num_cells(), 16u);
}

TEST(ParallelPrepareTest, LevelsNeedingSeveralDigitPasses) {
  // Dimension 0 spans 2^12 levels (two 11-bit digits at most), dimension 1
  // spans more than 2^22 (three), dimension 2 stays tiny; values repeat so
  // cells hold several rows and ties reach the later passes.
  Rng rng(11);
  const size_t rows = 80000;
  std::vector<double> needed(rows * 3);
  for (size_t row = 0; row < rows; ++row) {
    needed[row * 3 + 0] = static_cast<double>(rng.NextBounded(1u << 12));
    needed[row * 3 + 1] =
        static_cast<double>(rng.NextBounded(8) * ((1u << 22) + 12345));
    needed[row * 3 + 2] = static_cast<double>(rng.NextBounded(3));
  }
  const NeededMatrix raw = MakeMatrix(
      rows, 3, [&](size_t row, size_t i) { return needed[row * 3 + i]; },
      [](size_t row) { return static_cast<double>(row % 1000); });
  ExpectOracleAtEveryPoolWidth(raw, 1.0,
                               GetBuiltinOps(AggregateKind::kSum));
}

TEST(ParallelPrepareTest, TupleWiderThan64Bits) {
  // d = 6 with 24-bit level ranges: 144 key bits, so three key words. Each
  // dimension draws from a few values, so many rows share their leading
  // dimensions and only the lower words tell their cells apart.
  const size_t d = 6;
  const size_t rows = 70000;
  Rng rng(23);
  std::vector<double> needed(rows * d);
  for (size_t row = 0; row < rows; ++row) {
    for (size_t i = 0; i < d; ++i) {
      const uint64_t pick = rng.NextBounded(i < 3 ? 2 : 5);
      needed[row * d + i] = static_cast<double>(pick * ((1u << 23) + 1));
    }
  }
  const NeededMatrix raw = MakeMatrix(
      rows, d, [&](size_t row, size_t i) { return needed[row * d + i]; },
      [](size_t row) { return static_cast<double>(row); });
  CellSortedLayout oracle = ExpectOracleAtEveryPoolWidth(
      raw, 1.0, GetBuiltinOps(AggregateKind::kMin));
  EXPECT_EQ(oracle.num_cells(), 8u * 125u);
}

TEST(ParallelPrepareTest, StableSortByLevelsMatchesStdStableSort) {
  // A row-major buffer with heavy ties (including values that share a
  // level, and levels past INT32_MAX that wrap when stored as int32),
  // sorted from a shuffled starting order.
  const size_t d = 3;
  const size_t rows = 70000;
  const double step = 2.0;
  Rng rng(5);
  std::vector<double> needed(rows * d);
  const std::vector<double> values = {-5.0, 0.0, 0.5,  2.0,   2.5,
                                      1e6,  4e9, 1e10, 1e-300};
  for (double& v : needed) v = values[rng.NextBounded(values.size())];
  const NeededView view{needed.data(), d, d, 1};
  std::vector<uint32_t> start(rows);
  std::iota(start.begin(), start.end(), 0u);
  rng.Shuffle(&start);

  auto levels_of = [&](uint32_t row) {
    std::vector<int32_t> key(d);
    for (size_t i = 0; i < d; ++i) {
      key[i] = static_cast<int32_t>(PScoreLevel(view.at(row, i), step));
    }
    return key;
  };
  std::vector<uint32_t> expected = start;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](uint32_t a, uint32_t b) {
                     return levels_of(a) < levels_of(b);
                   });
  std::vector<uint32_t> expected_offsets;
  for (size_t j = 0; j < rows; ++j) {
    if (j == 0 || levels_of(expected[j]) != levels_of(expected[j - 1])) {
      expected_offsets.push_back(static_cast<uint32_t>(j));
    }
  }
  expected_offsets.push_back(static_cast<uint32_t>(rows));
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<uint32_t> order = start;
    std::vector<uint32_t> offsets;
    StableSortByLevels(view, step, &pool, &order, &offsets);
    EXPECT_EQ(order, expected) << threads << " threads";
    EXPECT_EQ(offsets, expected_offsets) << threads << " threads";
  }
}

TEST(ParallelPrepareTest, LayerReportsBuildInfoAndPrepareMs) {
  SyntheticOptions options;
  options.rows = 40000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  ASSERT_TRUE(layer.Prepare().ok());
  const CellSortedLayout oracle = OracleLayout(
      TaskMatrix(fixture->task), 5.0, *fixture->task.agg.ops);
  EXPECT_EQ(layer.num_cells(), oracle.num_cells());
  EXPECT_EQ(layer.unreachable_rows(), oracle.unreachable_rows);
  EXPECT_GT(layer.stats().prepare_ms, 0.0);
  EXPECT_TRUE(layer.SupportsConcurrentEvaluate());  // covers every row
}

TEST(ParallelPrepareTest, LayerAnswersIdenticallyAcrossPoolWidths) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 60000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  ThreadPool narrow(1);
  ThreadPool wide(4);
  CellSortedEvaluationLayer one(&fixture->task, step, &narrow);
  CellSortedEvaluationLayer four(&fixture->task, step, &wide);
  ASSERT_TRUE(one.Prepare().ok());
  ASSERT_TRUE(four.Prepare().ok());
  const AggregateOps& ops = *fixture->task.agg.ops;
  for (const auto& box :
       {std::vector<PScoreRange>{CellRangeForLevel(2, step),
                                 CellRangeForLevel(3, step)},
        std::vector<PScoreRange>{PScoreRange{-1.0, 4 * step},
                                 PScoreRange{-1.0, 6 * step}},
        std::vector<PScoreRange>{PScoreRange{-1.0, 7.3},
                                 PScoreRange{2.1, 13.9}}}) {
    auto a = one.EvaluateBox(box);
    auto b = four.EvaluateBox(box);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);  // bit-identical states, not just close finals
    EXPECT_DOUBLE_EQ(ops.Final(*a), ops.Final(*b));
  }
}

}  // namespace
}  // namespace acquire
