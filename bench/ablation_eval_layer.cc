// Ablation: the modular evaluation layer (Section 3). The same ACQUIRE
// search on (1) the direct layer — every cell query is a fresh relation
// scan, the faithful model of delegating execution to a DBMS without
// indexes; (2) the materialized scan — per-tuple refinement distances are
// materialized once and scanned serially; (3) the Section 7.4 grid index
// (cell-sorted CSR layout) — a cell query is one binary search over the
// populated cells, and empty cells are answered without touching data.

#include <cstdio>

#include "bench_util.h"
#include "exec/parallel_evaluation.h"
#include "index/cell_sorted.h"

namespace acquire {
namespace bench {
namespace {

void Run() {
  const size_t rows = EnvRows(20000);
  printf("Ablation: evaluation layer choice (rows=%zu, d=3, ratio=0.3, "
         "COUNT)\n\n", rows);
  Catalog catalog = MakeLineitemCatalog(rows);
  TablePrinter table({"layer", "total_ms", "cell_queries", "tuples_scanned",
                      "satisfied"});

  for (double ratio : {0.3, 0.6}) {
    RatioTask rt = MakeLineitemTask(catalog, /*d=*/3, ratio);
    AcquireOptions options;
    options.delta = 0.05;
    RefinedSpace space(&rt.task, options.gamma, options.norm);

    auto run = [&](const char* name, EvaluationLayer* layer) {
      Stopwatch sw;
      Status prep = layer->Prepare();
      ACQ_CHECK(prep.ok()) << prep.ToString();
      auto result = RunAcquire(rt.task, layer, options);
      ACQ_CHECK(result.ok()) << result.status().ToString();
      table.AddRow({StringFormat("%s (ratio %.1f)", name, ratio),
                    Ms(sw.ElapsedMillis()),
                    std::to_string(result->cell_queries),
                    std::to_string(layer->stats().tuples_scanned),
                    result->satisfied ? "yes" : "no"});
    };

    DirectEvaluationLayer direct(&rt.task);
    run("direct-scan", &direct);
    ParallelEvaluationLayer scan(&rt.task, /*pool=*/nullptr);
    run("materialized-scan", &scan);
    CellSortedEvaluationLayer indexed(&rt.task, space.step());
    run("grid-index", &indexed);
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace acquire

int main() {
  acquire::bench::Run();
  return 0;
}
