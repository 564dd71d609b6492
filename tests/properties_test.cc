// Parameterized end-to-end sweeps over dimensionality, aggregate ratio and
// norms, asserting Definition 1's guarantees and implementation-equivalence
// invariants (incremental == naive, all evaluation layers agree).

#include <gtest/gtest.h>
#include <cmath>

#include "core/acquire.h"
#include "exec/parallel_evaluation.h"
#include "index/cell_sorted.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

struct SweepParam {
  size_t d;
  double ratio;
  NormKind norm;
};

Norm MakeNorm(NormKind kind) {
  switch (kind) {
    case NormKind::kL1:
      return Norm::L1();
    case NormKind::kL2:
      return Norm::L2();
    case NormKind::kLp:
      return Norm::Lp(3.0);
    case NormKind::kLInf:
      return Norm::LInf();
  }
  return Norm::L1();
}

class AcquireSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AcquireSweepTest, GuaranteesHoldAcrossConfigurations) {
  const SweepParam param = GetParam();
  SyntheticOptions options;
  options.d = param.d;
  options.rows = 1500;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  double base =
      probe.EvaluateQueryValue(std::vector<double>(param.d, 0.0)).value();
  ASSERT_GT(base, 0.0);
  fixture->task.constraint.target = base / param.ratio;

  AcquireOptions acq;
  acq.norm = MakeNorm(param.norm);
  acq.delta = 0.05;

  // Run with all three evaluation layers and the naive ablation.
  ParallelEvaluationLayer cached(&fixture->task, /*pool=*/nullptr);
  DirectEvaluationLayer direct(&fixture->task);
  RefinedSpace space(&fixture->task, acq.gamma, acq.norm);
  CellSortedEvaluationLayer indexed(&fixture->task, space.step());
  ParallelEvaluationLayer naive_layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions naive = acq;
  naive.use_incremental = false;

  auto r_cached = RunAcquire(fixture->task, &cached, acq);
  auto r_direct = RunAcquire(fixture->task, &direct, acq);
  auto r_indexed = RunAcquire(fixture->task, &indexed, acq);
  auto r_naive = RunAcquire(fixture->task, &naive_layer, naive);
  ASSERT_TRUE(r_cached.ok() && r_direct.ok() && r_indexed.ok() &&
              r_naive.ok());

  // Definition 1(a): every answer within delta.
  ASSERT_TRUE(r_cached->satisfied);
  for (const RefinedQuery& q : r_cached->queries) {
    EXPECT_LE(q.error, acq.delta + 1e-12);
  }
  // Answers sorted by QScore and first answer is a minimum.
  for (size_t i = 1; i < r_cached->queries.size(); ++i) {
    EXPECT_LE(r_cached->queries[i - 1].qscore, r_cached->queries[i].qscore);
  }

  // Layer equivalence: same answers regardless of the evaluation back end.
  auto coords_of = [](const AcquireResult& r) {
    std::vector<GridCoord> out;
    for (const auto& q : r.queries) out.push_back(q.coord);
    return out;
  };
  EXPECT_EQ(coords_of(*r_cached), coords_of(*r_direct));
  EXPECT_EQ(coords_of(*r_cached), coords_of(*r_indexed));
  EXPECT_EQ(coords_of(*r_cached), coords_of(*r_naive));
  // Incremental computed each aggregate from one cell query; naive did not.
  EXPECT_EQ(r_cached->cell_queries, r_cached->queries_explored);
  EXPECT_EQ(r_naive->cell_queries, 0u);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const char* norm = "";
  switch (info.param.norm) {
    case NormKind::kL1:
      norm = "L1";
      break;
    case NormKind::kL2:
      norm = "L2";
      break;
    case NormKind::kLp:
      norm = "L3";
      break;
    case NormKind::kLInf:
      norm = "Linf";
      break;
  }
  return "d" + std::to_string(info.param.d) + "_r" +
         std::to_string(static_cast<int>(info.param.ratio * 100)) + "_" +
         norm;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AcquireSweepTest,
    ::testing::Values(SweepParam{1, 0.3, NormKind::kL1},
                      SweepParam{1, 0.6, NormKind::kLInf},
                      SweepParam{2, 0.3, NormKind::kL1},
                      SweepParam{2, 0.3, NormKind::kL2},
                      SweepParam{2, 0.6, NormKind::kLInf},
                      SweepParam{2, 0.6, NormKind::kLp},
                      SweepParam{3, 0.4, NormKind::kL1},
                      SweepParam{3, 0.6, NormKind::kL2},
                      SweepParam{3, 0.6, NormKind::kLInf},
                      SweepParam{4, 0.5, NormKind::kL1}),
    SweepName);

// Containment (Theorem 3): if Q' is contained in Q'' then every tuple of Q'
// satisfies Q'' — verified against the data for random coordinate pairs.
class ContainmentTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ContainmentTest, ContainedQueriesAreSubsets) {
  SyntheticOptions options;
  options.d = GetParam();
  options.rows = 800;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);

  Rng rng(31 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    GridCoord inner(options.d);
    GridCoord outer(options.d);
    for (size_t i = 0; i < options.d; ++i) {
      inner[i] = static_cast<int32_t>(rng.NextBounded(5));
      outer[i] = inner[i] + static_cast<int32_t>(rng.NextBounded(4));
    }
    auto small = layer.EvaluateBox(space.QueryBox(inner));
    auto big = layer.EvaluateBox(space.QueryBox(outer));
    ASSERT_TRUE(small.ok() && big.ok());
    // COUNT is monotone under containment.
    EXPECT_LE(fixture->task.agg.ops->Final(*small),
              fixture->task.agg.ops->Final(*big));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ContainmentTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace acquire
