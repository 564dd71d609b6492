// Ablation: Expand-phase search order. The paper's BFS (Algorithm 1)
// explores complete coordinate-sum layers; for non-L1 norms the layer
// boundary only approximates equi-QScore surfaces, so a best-first order
// by exact QScore can reach the first answer with fewer grid queries.
// The shell generator (Algorithm 2) is exact for L-infinity.

#include <cstdio>

#include "bench_util.h"

namespace acquire {
namespace bench {
namespace {

void Run() {
  const size_t rows = EnvRows(100000);
  printf("Ablation: search order (rows=%zu, d=3, ratio=0.4, delta=0.05)\n\n",
         rows);
  Catalog catalog = MakeLineitemCatalog(rows);
  RatioTask rt = MakeLineitemTask(catalog, /*d=*/3, /*ratio=*/0.4);

  TablePrinter table({"norm", "order", "explored", "first_hit_qscore",
                      "time_ms"});
  struct Config {
    const char* norm_name;
    Norm norm;
    SearchOrder order;
    const char* order_name;
  };
  const Config configs[] = {
      {"L1", Norm::L1(), SearchOrder::kBfs, "bfs"},
      {"L1", Norm::L1(), SearchOrder::kBestFirst, "best-first"},
      {"L2", Norm::L2(), SearchOrder::kBfs, "bfs"},
      {"L2", Norm::L2(), SearchOrder::kBestFirst, "best-first"},
      {"Linf", Norm::LInf(), SearchOrder::kShell, "shell"},
      {"Linf", Norm::LInf(), SearchOrder::kBestFirst, "best-first"},
  };
  for (const Config& config : configs) {
    AcquireOptions options;
    options.delta = 0.05;
    options.norm = config.norm;
    options.order = config.order;
    Stopwatch sw;
    RefinedSpace space(&rt.task, options.gamma, options.norm);
    CellSortedEvaluationLayer layer(&rt.task, space.step());
    Status prep = layer.Prepare();
    ACQ_CHECK(prep.ok()) << prep.ToString();
    auto result = RunAcquire(rt.task, &layer, options);
    ACQ_CHECK(result.ok()) << result.status().ToString();
    double qscore =
        result->queries.empty() ? -1.0 : result->queries.front().qscore;
    table.AddRow({config.norm_name, config.order_name,
                  std::to_string(result->queries_explored), Score(qscore),
                  Ms(sw.ElapsedMillis())});
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
