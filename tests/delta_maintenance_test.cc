// The growth rule of the materializing evaluation layers: rows appended to
// the relation after Prepare() must be answered bit-identically to a layer
// freshly built over the grown relation — on every query shape (cell
// probe, aligned box, off-grid scan, batched cells), for every aggregate
// kind, by the serial scan, the pooled scan and the cell-sorted index.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "acquire.h"
#include "common/random.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::FourWorkerPool;
using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

std::vector<std::vector<Value>> MakeAppendRows(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    std::vector<Value> row;
    row.reserve(6);
    for (size_t c = 0; c < 5; ++c) {
      row.emplace_back(rng.NextDouble(0.0, 100.0));
    }
    row.emplace_back(rng.NextDouble(0.0, 1000.0));
    rows.push_back(std::move(row));
  }
  return rows;
}

Status AppendToFixture(test_util::SyntheticTask* fixture, size_t count,
                       uint64_t seed) {
  return fixture->catalog.AppendRows("data", MakeAppendRows(count, seed));
}

// The query shapes Algorithm 3 (and the repartition probes) actually issue.
std::vector<std::vector<PScoreRange>> QueryShapes(double step) {
  return {
      // Single cells, populated and far-out (likely empty).
      {CellRangeForLevel(2, step), CellRangeForLevel(3, step)},
      {CellRangeForLevel(0, step), CellRangeForLevel(0, step)},
      {CellRangeForLevel(40, step), CellRangeForLevel(40, step)},
      // Aligned multi-cell boxes.
      {PScoreRange{-1.0, 4 * step}, PScoreRange{-1.0, 6 * step}},
      {PScoreRange{-1.0, 20 * step}, PScoreRange{-1.0, 20 * step}},
      // Off-grid boxes (fall back to the matrix scan).
      {PScoreRange{-1.0, 7.3}, PScoreRange{2.1, 13.9}},
  };
}

// Every shape, answered by `layer`, must be bitwise equal to `reference`
// (a layer freshly prepared over the grown relation).
void ExpectBitIdenticalAnswers(EvaluationLayer* layer,
                               EvaluationLayer* reference, double step) {
  for (const auto& box : QueryShapes(step)) {
    auto got = layer->EvaluateBox(box);
    auto expected = reference->EvaluateBox(box);
    ASSERT_TRUE(got.ok() && expected.ok());
    ASSERT_EQ(got->size(), expected->size());
    EXPECT_EQ(0, std::memcmp(got->data(), expected->data(),
                             got->size() * sizeof(double)))
        << "box[0]=[" << box[0].lo << "," << box[0].hi << "]";
  }
  // Batched cells, including duplicates (the dedup path copies answers).
  std::vector<GridCoord> coords;
  for (int32_t a = 0; a < 8; ++a) {
    for (int32_t b = 0; b < 8; ++b) coords.push_back(GridCoord{a, b});
  }
  coords.push_back(GridCoord{2, 3});
  coords.push_back(GridCoord{2, 3});
  auto got = layer->EvaluateCells(coords.data(), coords.size(), step);
  auto expected =
      reference->EvaluateCells(coords.data(), coords.size(), step);
  ASSERT_TRUE(got.ok() && expected.ok());
  ASSERT_EQ(got->size(), expected->size());
  for (size_t i = 0; i < got->size(); ++i) {
    ASSERT_EQ((*got)[i].size(), (*expected)[i].size()) << i;
    EXPECT_EQ(0, std::memcmp((*got)[i].data(), (*expected)[i].data(),
                             (*got)[i].size() * sizeof(double)))
        << "cell " << i;
  }
}

enum class LayerKind { kSerialScan, kPooledScan, kCellSorted };

std::unique_ptr<EvaluationLayer> MakeLayer(LayerKind kind, const AcqTask* task,
                                           double step) {
  switch (kind) {
    case LayerKind::kSerialScan:
      return std::make_unique<ParallelEvaluationLayer>(task, nullptr);
    case LayerKind::kPooledScan:
      return std::make_unique<ParallelEvaluationLayer>(task,
                                                       &FourWorkerPool());
    case LayerKind::kCellSorted:
      return std::make_unique<CellSortedEvaluationLayer>(task, step,
                                                         &FourWorkerPool());
  }
  return nullptr;
}

// Prepares a layer of `kind`, grows the relation in three appends with
// queries in between, and after each append compares every answer with a
// layer freshly built over the grown relation.
void ExpectGrowthMatchesFreshLayer(LayerKind kind) {
  for (AggregateKind agg :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg,
        AggregateKind::kMin, AggregateKind::kMax}) {
    SCOPED_TRACE(AggregateKindToString(agg));
    SyntheticOptions options;
    options.d = 2;
    options.rows = 8000;
    options.agg = agg;
    auto fixture = MakeSyntheticTask(options);
    ASSERT_NE(fixture, nullptr);
    const double step = 5.0;

    MemoryBudget budget;
    std::unique_ptr<EvaluationLayer> layer =
        MakeLayer(kind, &fixture->task, step);
    layer->set_memory_budget(&budget);
    ASSERT_TRUE(layer->Prepare().ok());
    const double first_prepare_ms = layer->stats().prepare_ms;

    for (uint64_t round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      ASSERT_TRUE(AppendToFixture(fixture.get(), 500, 99 + round).ok());
      // Stale until the next serial evaluate entry has rebuilt it.
      EXPECT_FALSE(layer->SupportsConcurrentEvaluate());

      MemoryBudget fresh_budget;
      std::unique_ptr<EvaluationLayer> fresh =
          MakeLayer(kind, &fixture->task, step);
      fresh->set_memory_budget(&fresh_budget);
      ASSERT_TRUE(fresh->Prepare().ok());
      ExpectBitIdenticalAnswers(layer.get(), fresh.get(), step);

      EXPECT_EQ(layer->SupportsConcurrentEvaluate(),
                fresh->SupportsConcurrentEvaluate());
      // The rebuild charged the growth only: the running total equals the
      // fresh layer's footprint, not the sum of both builds.
      EXPECT_EQ(budget.used(), fresh_budget.used());
    }
    EXPECT_GT(layer->stats().prepare_ms, first_prepare_ms);
  }
}

TEST(DeltaMaintenanceTest, SerialScanMatchesFreshLayerAfterAppend) {
  ExpectGrowthMatchesFreshLayer(LayerKind::kSerialScan);
}

TEST(DeltaMaintenanceTest, PooledScanMatchesFreshLayerAfterAppend) {
  ExpectGrowthMatchesFreshLayer(LayerKind::kPooledScan);
}

TEST(DeltaMaintenanceTest, CellSortedMatchesFreshLayerAfterAppend) {
  ExpectGrowthMatchesFreshLayer(LayerKind::kCellSorted);
}

TEST(DeltaMaintenanceTest, TableAppendRowsIsAtomicOnBadRow) {
  SyntheticOptions options;
  options.rows = 100;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  auto table = fixture->catalog.GetTable("data");
  ASSERT_TRUE(table.ok());
  const size_t before = (*table)->num_rows();
  const uint64_t generation = fixture->catalog.generation();

  // Row 1 has a string in a double column: the whole batch must be
  // rejected with row 0 NOT applied, and the generation unchanged.
  std::vector<std::vector<Value>> rows = MakeAppendRows(2, 5);
  rows[1][2] = Value("oops");
  Status appended = fixture->catalog.AppendRows("data", rows);
  EXPECT_FALSE(appended.ok());
  EXPECT_EQ((*table)->num_rows(), before);
  EXPECT_EQ(fixture->catalog.generation(), generation);

  // Width mismatch is rejected the same way.
  rows = MakeAppendRows(1, 6);
  rows[0].pop_back();
  EXPECT_FALSE(fixture->catalog.AppendRows("data", rows).ok());
  EXPECT_EQ((*table)->num_rows(), before);

  // And a good batch lands, bumping the generation once.
  ASSERT_TRUE(
      fixture->catalog.AppendRows("data", MakeAppendRows(3, 5)).ok());
  EXPECT_EQ((*table)->num_rows(), before + 3);
  EXPECT_EQ(fixture->catalog.generation(), generation + 1);

  // Unknown table / empty batch.
  EXPECT_FALSE(
      fixture->catalog.AppendRows("nope", MakeAppendRows(1, 5)).ok());
  ASSERT_TRUE(fixture->catalog.AppendRows("data", {}).ok());
  EXPECT_EQ(fixture->catalog.generation(), generation + 1);  // no-op: no bump
}

}  // namespace
}  // namespace acquire
