// Equivalence suite for the layer-batched Explore pipeline: RunAcquire with
// batch_explore on must produce bit-identical aggregates, identical answer
// sets, and identical cell-query counts to the sequential explorer, for
// every search order and every exact evaluation layer. The batched driver
// only reorders the independent O_1 cell executions — the Eq. 17 merges run
// in the same order either way — so even SUM/AVG must match exactly.

#include <gtest/gtest.h>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <tuple>

#include "acquire.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::FourWorkerPool;
using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

enum class LayerKind {
  kDirect,
  kCached,    // materialized scan, serial
  kParallel,  // materialized scan, pool-chunked
  kCellSorted,
};

const char* LayerName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDirect:
      return "Direct";
    case LayerKind::kCached:
      return "Cached";
    case LayerKind::kParallel:
      return "Parallel";
    case LayerKind::kCellSorted:
      return "CellSorted";
  }
  return "?";
}

std::unique_ptr<EvaluationLayer> MakeLayer(LayerKind kind, const AcqTask* task,
                                           double step) {
  switch (kind) {
    case LayerKind::kDirect:
      return std::make_unique<DirectEvaluationLayer>(task);
    case LayerKind::kCached:
      return std::make_unique<ParallelEvaluationLayer>(task, nullptr);
    case LayerKind::kParallel:
      return std::make_unique<ParallelEvaluationLayer>(task,
                                                       &FourWorkerPool());
    case LayerKind::kCellSorted:
      return std::make_unique<CellSortedEvaluationLayer>(task, step);
  }
  return nullptr;
}

const char* OrderName(SearchOrder order) {
  switch (order) {
    case SearchOrder::kAuto:
      return "Auto";
    case SearchOrder::kBfs:
      return "Bfs";
    case SearchOrder::kShell:
      return "Shell";
    case SearchOrder::kBestFirst:
      return "BestFirst";
  }
  return "?";
}

void ExpectSameResult(const AcquireResult& seq, const AcquireResult& bat,
                      const std::string& label) {
  EXPECT_EQ(seq.satisfied, bat.satisfied) << label;
  EXPECT_EQ(seq.queries_explored, bat.queries_explored) << label;
  EXPECT_EQ(seq.cell_queries, bat.cell_queries) << label;
  EXPECT_EQ(seq.exec_stats.queries, bat.exec_stats.queries) << label;
  ASSERT_EQ(seq.queries.size(), bat.queries.size()) << label;
  for (size_t i = 0; i < seq.queries.size(); ++i) {
    EXPECT_EQ(seq.queries[i].coord, bat.queries[i].coord)
        << label << " answer " << i;
    EXPECT_EQ(seq.queries[i].pscores, bat.queries[i].pscores)
        << label << " answer " << i;
    // Bit-exact: same cell states merged in the same order.
    EXPECT_EQ(seq.queries[i].aggregate, bat.queries[i].aggregate)
        << label << " answer " << i;
    EXPECT_EQ(seq.queries[i].error, bat.queries[i].error)
        << label << " answer " << i;
    EXPECT_EQ(seq.queries[i].qscore, bat.queries[i].qscore)
        << label << " answer " << i;
  }
  EXPECT_EQ(seq.best.coord, bat.best.coord) << label;
  EXPECT_EQ(seq.best.aggregate, bat.best.aggregate) << label;
  EXPECT_EQ(seq.best.error, bat.best.error) << label;
}

class BatchExploreEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SearchOrder, LayerKind>> {};

TEST_P(BatchExploreEquivalenceTest, BatchedMatchesSequential) {
  auto [order, kind] = GetParam();
  SyntheticOptions topt;
  topt.d = 3;
  topt.rows = 4000;
  topt.agg = AggregateKind::kSum;  // FP-sensitive: catches any reordering
  topt.target = 240000.0;         // forces several expansion layers
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);

  AcquireOptions options;
  options.gamma = 12.0;  // grid step 4.0 with d = 3
  options.delta = 0.02;
  options.order = order;
  const double step = options.gamma / static_cast<double>(topt.d);
  const std::string label =
      std::string(OrderName(order)) + "/" + LayerName(kind);

  auto seq_layer = MakeLayer(kind, &fixture->task, step);
  auto bat_layer = MakeLayer(kind, &fixture->task, step);
  ASSERT_NE(seq_layer, nullptr);
  ASSERT_NE(bat_layer, nullptr);

  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, seq_layer.get(), options);
  options.batch_explore = BatchExplore::kOn;  // forced even for best-first
  auto bat = RunAcquire(fixture->task, bat_layer.get(), options);
  ASSERT_TRUE(seq.ok() && bat.ok()) << label;
  ExpectSameResult(*seq, *bat, label);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAllLayers, BatchExploreEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchOrder::kAuto, SearchOrder::kBfs,
                                         SearchOrder::kShell,
                                         SearchOrder::kBestFirst),
                       ::testing::Values(LayerKind::kDirect, LayerKind::kCached,
                                         LayerKind::kParallel,
                                         LayerKind::kCellSorted)),
    [](const auto& info) {
      return std::string(OrderName(std::get<0>(info.param))) + "_" +
             LayerName(std::get<1>(info.param));
    });

TEST(BatchExploreTest, CollectWithinGammaMatches) {
  // The within-gamma sweep keeps exploring past the hit layer; layer
  // accounting (stop_score at layer granularity) must agree across modes.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 3000;
  topt.agg = AggregateKind::kCount;
  topt.target = 900.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer seq_layer(&fixture->task, /*pool=*/nullptr);
  ParallelEvaluationLayer bat_layer(&fixture->task, /*pool=*/nullptr);

  AcquireOptions options;
  options.gamma = 10.0;
  options.delta = 0.03;
  options.collect_within_gamma = true;
  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, &seq_layer, options);
  options.batch_explore = BatchExplore::kOn;
  auto bat = RunAcquire(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ExpectSameResult(*seq, *bat, "within_gamma");
  EXPECT_TRUE(seq->satisfied);
}

TEST(BatchExploreTest, NonIncrementalAblationMatches) {
  // With use_incremental off the batched driver batches the full-query
  // boxes instead of cell sub-queries; results must still be identical.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 2000;
  topt.agg = AggregateKind::kAvg;
  topt.target = 480.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer seq_layer(&fixture->task, /*pool=*/nullptr);
  ParallelEvaluationLayer bat_layer(&fixture->task, /*pool=*/nullptr);

  AcquireOptions options;
  options.gamma = 10.0;
  options.use_incremental = false;
  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, &seq_layer, options);
  options.batch_explore = BatchExplore::kOn;
  auto bat = RunAcquire(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ExpectSameResult(*seq, *bat, "non_incremental");
  EXPECT_EQ(seq->cell_queries, 0u);
}

TEST(BatchExploreTest, BestFirstAutoBatchesAndMatchesSequential) {
  // kAuto now micro-batches the best-first order too (equal-score frontier
  // runs become tiny layers); that must stay indistinguishable from the
  // unbatched explorer.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 1000;
  topt.target = 600.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  options.order = SearchOrder::kBestFirst;
  ParallelEvaluationLayer seq_layer(&fixture->task, /*pool=*/nullptr);
  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, &seq_layer, options);
  ParallelEvaluationLayer bat_layer(&fixture->task, /*pool=*/nullptr);
  options.batch_explore = BatchExplore::kAuto;
  auto bat = RunAcquire(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ExpectSameResult(*seq, *bat, "best_first_auto");
}

TEST(BatchExploreTest, ContractionBatchedMatchesSequential) {
  // Overshooting equality target routes ProcessAcq into contraction; the
  // batched layer walk there must agree with the sequential one.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 3000;
  topt.agg = AggregateKind::kCount;
  topt.bound = 80.0;    // wide original query ...
  topt.target = 500.0;  // ... already exceeds the target: contraction
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);

  AcquireOptions options;
  options.gamma = 10.0;
  options.delta = 0.02;
  options.batch_explore = BatchExplore::kOff;
  ParallelEvaluationLayer seq_layer(&fixture->task, /*pool=*/nullptr);
  auto seq = ProcessAcq(fixture->task, &seq_layer, options);
  options.batch_explore = BatchExplore::kOn;
  ParallelEvaluationLayer bat_layer(&fixture->task, /*pool=*/nullptr);
  auto bat = ProcessAcq(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ASSERT_EQ(seq->mode, AcqMode::kContracted);
  ASSERT_EQ(bat->mode, AcqMode::kContracted);
  ExpectSameResult(seq->result, bat->result, "contraction");
}

TEST(BatchExploreTest, PhaseTimingsAreReported) {
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 2000;
  topt.target = 900.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions options;
  options.batch_explore = BatchExplore::kOn;
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->exec_stats.expand_ms, 0.0);
  EXPECT_GT(result->exec_stats.explore_ms, 0.0);
  EXPECT_GE(result->exec_stats.drain_ms, 0.0);
  EXPECT_GE(result->elapsed_ms,
            0.0);  // monotonic stopwatch can never go negative
}

// A batched BFS drain keeps only layers l-1 and l, addressed by rank: its
// store peaks at the two largest layers' blocks plus the rank table, far
// below the sequential explorer's hash store, which keeps every state of
// the run. The other store paths report their peak too.
TEST(BatchExploreTest, BfsStorePeaksAtTwoLayersPlusRankTable) {
  SyntheticOptions topt;
  topt.d = 4;
  topt.rows = 2000;
  topt.op = ConstraintOp::kGe;
  topt.target = 1900.0;  // deep: nearly the whole table must be covered
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  options.gamma = 120.0;  // step 30: a 9^4 grid, 33 layers
  options.order = SearchOrder::kBfs;
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, &layer, options);
  options.batch_explore = BatchExplore::kOn;
  auto bat = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ASSERT_EQ(seq->queries_explored, bat->queries_explored);

  // Layer sizes of every layer the run reached, the last one in full.
  RefinedSpace space(&fixture->task, options.gamma, options.norm);
  BfsGenerator gen(&space);
  GridCoord coord;
  std::vector<uint64_t> sizes;
  uint64_t drained = 0;
  while (gen.Next(&coord)) {
    const size_t level = static_cast<size_t>(gen.CurrentScore());
    if (drained >= bat->queries_explored && level >= sizes.size()) break;
    if (level >= sizes.size()) sizes.push_back(0);
    ++sizes[level];
    ++drained;
  }
  ASSERT_GE(sizes.size(), 10u) << "the run should span many layers";
  std::vector<int32_t> caps;
  for (size_t i = 0; i < space.d(); ++i) caps.push_back(space.MaxLevel(i));
  LayerRank rank(caps);
  rank.Extend(static_cast<int64_t>(sizes.size()) - 1);
  std::vector<uint64_t> sorted = sizes;
  std::sort(sorted.rbegin(), sorted.rend());
  const uint64_t block_bytes =
      (space.d() + 1) * fixture->task.agg.ops->Init().size() * sizeof(double);
  const uint64_t peak = bat->exec_stats.store_peak_bytes;
  EXPECT_GE(peak, sorted[0] * block_bytes);
  EXPECT_LE(peak, (sorted[0] + sorted[1]) * block_bytes + rank.MemoryBytes());
  EXPECT_LT(peak * 4, seq->exec_stats.store_peak_bytes);

  for (SearchOrder order : {SearchOrder::kShell, SearchOrder::kBestFirst}) {
    options.order = order;
    auto other = RunAcquire(fixture->task, &layer, options);
    ASSERT_TRUE(other.ok());
    EXPECT_GT(other->exec_stats.store_peak_bytes, 0u) << OrderName(order);
  }
}

// BFS generator that requests cancellation of `ctx` when it emits the
// second coordinate of layer `level`, that is, while that layer is being
// generated (its first coordinate is the previous layer's lookahead). It
// first waits for `armed`, so a prefetch cannot cancel before the driver's
// poll that precedes the layer.
class CancellingGenerator final : public QueryGenerator {
 public:
  CancellingGenerator(const RefinedSpace* space, RunContext* ctx,
                      int64_t level)
      : inner_(space), ctx_(ctx), level_(level) {}

  bool Next(GridCoord* out) override {
    if (!inner_.Next(out)) return false;
    int64_t sum = 0;
    for (int32_t c : *out) sum += c;
    if (sum == level_ && ++seen_ == 2) {
      while (!armed.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ctx_->RequestCancel();
    }
    return true;
  }
  double CurrentScore() const override { return inner_.CurrentScore(); }

  std::atomic<bool> armed{false};

 private:
  BfsGenerator inner_;
  RunContext* ctx_;
  int64_t level_;
  int seen_ = 0;
};

// A layer generation that observes an interruption hands out a prefix of
// its layer, and the context keeps reporting the interruption, so the
// driver's next poll ends the run. The positional store places the prefix
// at its layer positions (every aggregate matches the sequential explorer
// bit for bit) and refuses the rest of the layer.
TEST(BatchExploreTest, TruncatedBfsLayerEndsTheRun) {
  SyntheticOptions topt;
  topt.d = 4;
  topt.rows = 2000;
  topt.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 12.0, Norm::L1());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  ASSERT_TRUE(layer.Prepare().ok());
  Explorer reference(&space, &layer);

  // The first layer long enough that GenerateLayer, polling every 256
  // coordinates, cuts it short.
  std::vector<int32_t> caps;
  for (size_t i = 0; i < space.d(); ++i) caps.push_back(space.MaxLevel(i));
  LayerRank rank(caps);
  int64_t level = 0;
  rank.Extend(level);
  while (rank.LayerSize(level) <= 600) {
    ASSERT_LT(level, 100) << "no layer holds more than 600 coordinates";
    rank.Extend(++level);
  }

  RunContext ctx;
  CancellingGenerator generator(&space, &ctx, level);
  BatchExplorer batch(&space, &layer, &generator, SearchOrder::kBfs, &ctx);
  // Arms the generator before `batch` joins its prefetch on an early
  // assertion exit, so the join cannot wait forever.
  struct ArmOnExit {
    std::atomic<bool>* armed;
    ~ArmOnExit() { *armed = true; }
  } arm_on_exit{&generator.armed};
  double last_score = -1.0;
  size_t explored = 0;
  // The driver's poll precedes each NextLayer.
  while (!ctx.ShouldStop()) {
    if (last_score == static_cast<double>(level - 1)) generator.armed = true;
    if (!batch.NextLayer()) break;
    ASSERT_NE(batch.layer_score(), last_score) << "a layer arrived twice";
    last_score = batch.layer_score();
    ASSERT_TRUE(batch.ExecuteLayer().ok());
    for (size_t q = 0; q < batch.layer().size(); ++q, ++explored) {
      Result<double> got = batch.ComputeAggregate(q);
      Result<double> want = reference.ComputeAggregate(batch.layer()[q]);
      ASSERT_TRUE(got.ok() && want.ok());
      ASSERT_EQ(*got, *want) << "layer " << last_score << " position " << q;
    }
  }
  ASSERT_TRUE(ctx.ShouldStop()) << "the space ran out before the stop";
  EXPECT_EQ(last_score, static_cast<double>(level));
  EXPECT_LT(batch.layer().size(), rank.LayerSize(level))
      << "the layer was not truncated";
  EXPECT_EQ(batch.cell_queries(), explored);

  // A driver that ignored the stop would get the rest of the layer, which
  // the store refuses.
  ASSERT_TRUE(batch.NextLayer());
  EXPECT_EQ(batch.layer_score(), last_score);
  EXPECT_EQ(batch.ExecuteLayer().code(), StatusCode::kInternal);
  batch.Finish();
}

// BFS generator that parks the first call reaching layer 4 until released,
// so the prefetch generating layer 3 is provably still running.
class ParkingGenerator final : public QueryGenerator {
 public:
  explicit ParkingGenerator(const RefinedSpace* space) : inner_(space) {}

  bool Next(GridCoord* out) override {
    if (!inner_.Next(out)) return false;
    int sum = 0;
    for (int32_t c : *out) sum += c;
    if (sum >= 4 && !released.load()) {
      parked.store(true);
      while (!released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  }
  double CurrentScore() const override { return inner_.CurrentScore(); }

  std::atomic<bool> parked{false};
  std::atomic<bool> released{false};

 private:
  BfsGenerator inner_;
};

// A driver that stops early (here: a cancel latched while the next layer
// is still being generated) must join the prefetch before it reads
// expand_ms. Finish() is that join: it waits out the in-flight layer, whose
// generator time is then counted, and nothing writes the stats afterwards.
TEST(BatchExploreTest, FinishJoinsInFlightPrefetchBeforeStatsRead) {
  if (ThreadPool::Shared().num_threads() < 2) {
    GTEST_SKIP() << "a one-worker pool generates layers inline";
  }
  SyntheticOptions topt;
  topt.d = 3;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 12.0, Norm::L1());
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  ParkingGenerator generator(&space);
  RunContext ctx;
  BatchExplorer batch(&space, &layer, &generator, SearchOrder::kBfs, &ctx);

  // BFS layers 0..2 hold 1, 3 and 6 coordinates; handing out layer 2 starts
  // the prefetch of layer 3, which parks on its lookahead into layer 4.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(batch.NextLayer());
  ASSERT_EQ(batch.layer().size(), 6u);
  while (!generator.parked.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ctx.RequestCancel();
  ASSERT_TRUE(ctx.ShouldStop());

  constexpr int kParkMs = 30;
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(kParkMs));
    generator.released.store(true);
  });
  batch.Finish();
  const double expand_ms = batch.expand_ms();
  releaser.join();
  EXPECT_GE(expand_ms, static_cast<double>(kParkMs));
  batch.Finish();  // idempotent: nothing left to join
  EXPECT_EQ(batch.expand_ms(), expand_ms);
}

}  // namespace
}  // namespace acquire
