// LayerRank, the index arithmetic behind the positional Explore store: a
// coordinate's rank within its BFS layer must be its position in the
// layer's lexicographically descending order, i.e. the position at which
// BfsGenerator emits it, and every predecessor u - e_j must rank to the
// right coordinate of the previous layer. Checked against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "core/expand.h"
#include "core/explore.h"
#include "exec/planner.h"
#include "test_util.h"

namespace acquire {
namespace {

using Coord = std::vector<int32_t>;

/// Every in-cap vector summing to `level`, lexicographically descending.
std::vector<Coord> BruteForceLayer(const std::vector<int32_t>& caps,
                                   int64_t level) {
  std::vector<Coord> out;
  Coord cur(caps.size(), 0);
  std::function<void(size_t, int64_t)> fill = [&](size_t k, int64_t rem) {
    if (k == caps.size()) {
      if (rem == 0) out.push_back(cur);
      return;
    }
    for (int64_t v = std::min<int64_t>(caps[k], rem); v >= 0; --v) {
      cur[k] = static_cast<int32_t>(v);
      fill(k + 1, rem - v);
    }
  };
  fill(0, level);
  return out;
}

void ExpectRanksMatchBruteForce(const std::vector<int32_t>& caps,
                                int64_t max_level) {
  SCOPED_TRACE(::testing::PrintToString(caps));
  LayerRank rank(caps);
  rank.Extend(max_level);
  std::map<Coord, uint64_t> prev_position;
  std::vector<uint64_t> preds(caps.size());
  for (int64_t level = 0; level <= max_level; ++level) {
    const std::vector<Coord> layer = BruteForceLayer(caps, level);
    ASSERT_EQ(rank.LayerSize(level), layer.size()) << "level " << level;
    std::map<Coord, uint64_t> position;
    for (size_t p = 0; p < layer.size(); ++p) {
      const Coord& u = layer[p];
      // A bijection onto [0, |layer|): each member ranks to its own
      // position in the descending order.
      ASSERT_EQ(rank.Rank(u.data(), level), p) << "level " << level;
      position[u] = p;
      std::fill(preds.begin(), preds.end(), ~uint64_t{0});
      rank.PredecessorRanks(u.data(), level, preds.data());
      for (size_t j = 0; j < caps.size(); ++j) {
        if (u[j] == 0) {
          EXPECT_EQ(preds[j], ~uint64_t{0}) << "untouched for u_j = 0";
          continue;
        }
        Coord v = u;
        --v[j];
        ASSERT_EQ(preds[j], prev_position.at(v))
            << "level " << level << " position " << p << " dim " << j;
      }
    }
    prev_position = std::move(position);
  }
}

TEST(LayerRankTest, UnboundedCapsMatchBruteForce) {
  for (size_t d = 1; d <= 5; ++d) {
    ExpectRanksMatchBruteForce(std::vector<int32_t>(d, 1000),
                               d <= 3 ? 12 : 7);
  }
}

TEST(LayerRankTest, LooseCapsMatchBruteForce) {
  const std::vector<int32_t> caps = {6, 4, 7, 5, 3};
  for (size_t d = 1; d <= 5; ++d) {
    const std::vector<int32_t> prefix(caps.begin(), caps.begin() + d);
    int64_t total = 0;
    for (int32_t c : prefix) total += c;
    ExpectRanksMatchBruteForce(prefix, total + 1);  // past the far corner
  }
}

TEST(LayerRankTest, TightAndZeroCapsMatchBruteForce) {
  ExpectRanksMatchBruteForce({0}, 2);
  ExpectRanksMatchBruteForce({1, 0}, 3);
  ExpectRanksMatchBruteForce({0, 2, 1}, 4);
  ExpectRanksMatchBruteForce({1, 1, 0, 2}, 5);
  ExpectRanksMatchBruteForce({2, 0, 1, 0, 1}, 5);
  ExpectRanksMatchBruteForce({1, 1, 1, 1, 1}, 6);
  ExpectRanksMatchBruteForce({0, 0, 0, 0, 0}, 1);
}

TEST(LayerRankTest, PastTheGridLayersAreEmpty) {
  LayerRank rank({2, 1});
  rank.Extend(6);
  EXPECT_EQ(rank.LayerSize(3), 1u);  // (2, 1)
  EXPECT_EQ(rank.LayerSize(4), 0u);
  EXPECT_EQ(rank.LayerSize(6), 0u);
  EXPECT_EQ(rank.LayerSize(-1), 0u);
}

// The positional store addresses layer l by generation position, so the
// rank must equal BfsGenerator's emission order on real refined spaces,
// whose caps come from the predicates' refinement limits.
TEST(LayerRankTest, RankIsBfsGeneratorEmissionPosition) {
  test_util::SyntheticOptions topt;
  topt.d = 5;
  auto fixture = test_util::MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  // Per-dimension refinement limits in PScore units (at step 4 each unit
  // of 4 is one grid level); 0 pins a dimension at cap 0.
  const std::vector<std::vector<double>> limit_sets = {
      {8.0},
      {0.0, 12.0},
      {4.0, 20.0, 8.0},
      {12.0, 0.0, 4.0, 8.0},
      {4.0, 8.0, 0.0, 4.0, 12.0},
      {40.0, 40.0, 40.0},     // the whole 11^3 grid
      {4000.0, 4000.0, 4000.0},  // caps past every layer the test drains
  };
  for (const std::vector<double>& limits : limit_sets) {
    SCOPED_TRACE(::testing::PrintToString(limits));
    QuerySpec spec;
    spec.tables = {"data"};
    for (size_t i = 0; i < limits.size(); ++i) {
      SelectPredicateSpec pred;
      pred.column = "c" + std::to_string(i);
      pred.op = CompareOp::kLe;
      pred.bound = 30.0;
      pred.max_refinement = limits[i];
      spec.predicates.push_back(pred);
    }
    spec.agg_kind = AggregateKind::kCount;
    spec.constraint_op = ConstraintOp::kGe;
    spec.target = 100.0;
    Result<AcqTask> task = PlanAcqTask(fixture->catalog, spec);
    ASSERT_TRUE(task.ok()) << task.status().ToString();
    const double gamma = 4.0 * static_cast<double>(limits.size());
    RefinedSpace space(&*task, gamma, Norm::L1());
    std::vector<int32_t> caps;
    for (size_t i = 0; i < space.d(); ++i) caps.push_back(space.MaxLevel(i));

    LayerRank rank(caps);
    BfsGenerator gen(&space);
    GridCoord coord;
    int64_t level = -1;
    uint64_t position = 0;
    uint64_t drained = 0;
    constexpr uint64_t kMaxDrained = 5000;
    while (drained < kMaxDrained && gen.Next(&coord)) {
      ++drained;
      const int64_t score = static_cast<int64_t>(gen.CurrentScore());
      if (score != level) {
        if (level >= 0) {
          ASSERT_EQ(rank.LayerSize(level), position);
        }
        level = score;
        position = 0;
        rank.Extend(level);
      }
      ASSERT_EQ(rank.Rank(coord.data(), level), position)
          << "level " << level;
      ++position;
    }
    // A fully drained grid ends with its far corner, a one-member layer.
    if (drained < kMaxDrained) {
      EXPECT_EQ(rank.LayerSize(level), position);
    }
  }
}

}  // namespace
}  // namespace acquire
