// Ablation: Incremental Aggregate Computation (Section 5) on vs off.
// "Off" re-executes every explored grid query in full against the
// evaluation layer; "on" executes one cell query per grid query and merges
// stored sub-aggregates (Eq. 17). Shown on both the grid-index layer (cell
// queries one binary search) and the direct scan layer (cell queries one
// scan each) to separate the two effects.

#include <cstdio>

#include "bench_util.h"

namespace acquire {
namespace bench {
namespace {

struct Cell {
  double time_ms;
  uint64_t tuples_scanned;
};

Cell RunWith(const AcqTask& task, bool incremental, bool use_index) {
  AcquireOptions options;
  options.delta = 0.05;
  options.use_incremental = incremental;
  Stopwatch sw;
  std::unique_ptr<EvaluationLayer> layer;
  if (use_index) {
    RefinedSpace space(&task, options.gamma, options.norm);
    layer = std::make_unique<CellSortedEvaluationLayer>(&task, space.step());
  } else {
    layer = std::make_unique<DirectEvaluationLayer>(&task);
  }
  Status prep = layer->Prepare();
  ACQ_CHECK(prep.ok()) << prep.ToString();
  auto result = RunAcquire(task, layer.get(), options);
  ACQ_CHECK(result.ok()) << result.status().ToString();
  return Cell{sw.ElapsedMillis(), layer->stats().tuples_scanned};
}

void Run() {
  // Small default: the direct-scan x naive combination pays a full scan per
  // explored grid query, which is exactly the cost this ablation exposes.
  const size_t rows = EnvRows(20000);
  printf("Ablation: incremental aggregate computation (rows=%zu, d=3, "
         "COUNT)\n\n", rows);
  Catalog catalog = MakeLineitemCatalog(rows);
  TablePrinter table({"ratio", "idx_incr_ms", "idx_naive_ms",
                      "scan_incr_ms", "scan_naive_ms", "scan_incr_tuples",
                      "scan_naive_tuples"});
  for (double ratio : {0.5, 0.7}) {
    RatioTask rt = MakeLineitemTask(catalog, /*d=*/3, ratio);
    Cell idx_incr = RunWith(rt.task, true, true);
    Cell idx_naive = RunWith(rt.task, false, true);
    Cell scan_incr = RunWith(rt.task, true, false);
    Cell scan_naive = RunWith(rt.task, false, false);
    table.AddRow({StringFormat("%.1f", ratio), Ms(idx_incr.time_ms),
                  Ms(idx_naive.time_ms), Ms(scan_incr.time_ms),
                  Ms(scan_naive.time_ms),
                  std::to_string(scan_incr.tuples_scanned),
                  std::to_string(scan_naive.tuples_scanned)});
  }
  table.Print();
  printf("\nNote: with the grid index, a naive full re-execution per grid "
         "query costs a pass over all populated cells, while incremental "
         "costs one O(log cells) cell probe plus d merges.\n");
}

}  // namespace
}  // namespace bench
}  // namespace acquire

int main() {
  acquire::bench::Run();
  return 0;
}
