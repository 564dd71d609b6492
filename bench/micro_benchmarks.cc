// Google-benchmark microbenchmarks for the hot building blocks: joins,
// evaluation-layer box queries, incremental aggregate computation, grid
// generation and the workload samplers.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/zipf.h"
#include "core/expand.h"
#include "core/explore.h"
#include "exec/join.h"
#include "exec/parallel_evaluation.h"

namespace acquire {
namespace bench {
namespace {

const Catalog& SharedCatalog() {
  static Catalog* const kCatalog = new Catalog(MakeLineitemCatalog(50000));
  return *kCatalog;
}

const AcqTask& SharedTask() {
  static const RatioTask* const kTask =
      new RatioTask(MakeLineitemTask(SharedCatalog(), 3, 0.5));
  return kTask->task;
}

void BM_HashJoin(benchmark::State& state) {
  auto supplier = SharedCatalog().GetTable("supplier").value();
  auto partsupp = SharedCatalog().GetTable("partsupp").value();
  for (auto _ : state) {
    auto joined =
        HashJoin(supplier, partsupp, "s_suppkey", "ps_suppkey", "j");
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(partsupp->num_rows()));
}
BENCHMARK(BM_HashJoin);

void BM_BandJoin(benchmark::State& state) {
  auto supplier = SharedCatalog().GetTable("supplier").value();
  auto partsupp = SharedCatalog().GetTable("partsupp").value();
  const double band = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto joined =
        BandJoin(supplier, partsupp, "s_suppkey", "ps_suppkey", band, "j");
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_BandJoin)->Arg(0)->Arg(2)->Arg(8);

void BM_DirectBoxQuery(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  DirectEvaluationLayer layer(&task);
  std::vector<PScoreRange> box(task.d(), PScoreRange{-1.0, 10.0});
  for (auto _ : state) {
    auto result = layer.EvaluateBox(box);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(task.relation->num_rows()));
}
BENCHMARK(BM_DirectBoxQuery);

void BM_CachedBoxQuery(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  ParallelEvaluationLayer layer(&task, /*pool=*/nullptr);
  benchmark::DoNotOptimize(layer.Prepare());
  std::vector<PScoreRange> box(task.d(), PScoreRange{-1.0, 10.0});
  for (auto _ : state) {
    auto result = layer.EvaluateBox(box);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(task.relation->num_rows()));
}
BENCHMARK(BM_CachedBoxQuery);

void BM_ParallelBoxQuery(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  ParallelEvaluationLayer layer(&task, &pool);
  benchmark::DoNotOptimize(layer.Prepare());
  std::vector<PScoreRange> box(task.d(), PScoreRange{-1.0, 10.0});
  for (auto _ : state) {
    auto result = layer.EvaluateBox(box);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(task.relation->num_rows()));
}
BENCHMARK(BM_ParallelBoxQuery)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CellSortedCellProbe(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  CellSortedEvaluationLayer layer(&task, space.step());
  benchmark::DoNotOptimize(layer.Prepare());
  auto cell = space.CellBox({1, 2, 0});
  for (auto _ : state) {
    auto result = layer.EvaluateBox(cell);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CellSortedCellProbe);

void BM_CellSortedBuild(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  for (auto _ : state) {
    CellSortedEvaluationLayer layer(&task, space.step());
    benchmark::DoNotOptimize(layer.Prepare());
  }
}
BENCHMARK(BM_CellSortedBuild);

void BM_ExplorerLayerSweep(benchmark::State& state) {
  // Cost of incrementally evaluating the first N grid queries.
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  CellSortedEvaluationLayer layer(&task, space.step());
  benchmark::DoNotOptimize(layer.Prepare());
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Explorer explorer(&space, &layer);
    BfsGenerator gen(&space);
    GridCoord coord;
    for (int i = 0; i < n && gen.Next(&coord); ++i) {
      benchmark::DoNotOptimize(explorer.ComputeAggregate(coord));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ExplorerLayerSweep)->Arg(100)->Arg(1000);

void BM_BfsGeneration(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BfsGenerator gen(&space);
    GridCoord coord;
    for (int i = 0; i < n && gen.Next(&coord); ++i) {
      benchmark::DoNotOptimize(coord);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BfsGeneration)->Arg(1000)->Arg(10000);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(1000, 1.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_TopKRanking(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  for (auto _ : state) {
    auto result = RunTopK(task, Norm::L1());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(task.relation->num_rows()));
}
BENCHMARK(BM_TopKRanking);

}  // namespace
}  // namespace bench
}  // namespace acquire

BENCHMARK_MAIN();
