// Index prepare: the cell-sorted layout build (one stable radix sort of
// the rows by grid level, index/parallel_prepare.h) timed at pool widths
// 1/2/4. Every timed build must be bit-identical to the brute-force oracle
// (tests/layout_oracle.h) before its time is reported: a fast wrong build
// is worthless.
//
// Emits one line of JSON on stdout (committed as BENCH_index_prepare.json):
// median and spread over the repetitions per pool width, and the machine
// and build the figures came from. Human-readable progress goes to stderr.
// ACQ_BENCH_ROWS=<n> shrinks the catalog for a quick pass; the default is
// the paper-scale 10^6.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "../tests/layout_oracle.h"
#include "bench_util.h"
#include "exec/eval_kernel.h"
#include "exec/thread_pool.h"
#include "index/parallel_prepare.h"

namespace acquire {
namespace bench {

int Main() {
  const size_t rows = EnvRows(1000000);
  const size_t d = 3;
  const double gamma = 12.0;
  const double step = gamma / static_cast<double>(d);
  const int reps = 5;
  const std::vector<size_t> widths = {1, 2, 4};

  Catalog catalog = MakeLineitemCatalog(rows);
  RatioTask ratio = MakeLineitemTask(catalog, d, 0.3);
  const AcqTask& task = ratio.task;
  const AggregateOps& ops = *task.agg.ops;

  fprintf(stderr, "index_prepare_bench rows=%zu d=%zu step=%.2f\n", rows, d,
          step);

  // The layout is built from the needed matrix; only the layout build is
  // timed (the matrix build is the same for every layer over the task).
  NeededMatrix raw;
  ACQ_CHECK(BuildNeededMatrix(task, nullptr, &raw).ok());
  Stopwatch t_oracle;
  const CellSortedLayout oracle = test_util::OracleLayout(raw, step, ops);
  const double oracle_ms = t_oracle.ElapsedMillis();
  fprintf(stderr, "oracle cells=%zu unreachable=%zu build=%.1fms\n",
          oracle.num_cells(), oracle.unreachable_rows, oracle_ms);

  // Repetitions alternate between the pool widths, so drift on the host
  // spreads over every width alike.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t width : widths) {
    pools.push_back(std::make_unique<ThreadPool>(width));
  }
  std::vector<std::vector<double>> samples(widths.size());
  for (int r = 0; r < reps; ++r) {
    for (size_t w = 0; w < widths.size(); ++w) {
      CellSortedLayout layout;
      Stopwatch sw;
      Status built =
          BuildCellSortedLayout(raw, step, ops, pools[w].get(), &layout);
      const double ms = sw.ElapsedMillis();
      ACQ_CHECK(built.ok()) << built.ToString();
      // Bit-identity gate: the timing is meaningless otherwise.
      ACQ_CHECK(LayoutsBitIdentical(oracle, layout))
          << widths[w] << "-worker build diverged from the oracle";
      samples[w].push_back(ms);
    }
  }

  std::string json = StringFormat(
      "{\"bench\":\"index_prepare\",\"rows\":%zu,\"d\":%zu,\"step\":%.3f,"
      "\"cells\":%zu,\"unreachable_rows\":%zu,\"reps\":%d,"
      "\"machine\":%s,\"oracle_ms\":%.3f,\"configs\":[",
      rows, d, step, oracle.num_cells(), oracle.unreachable_rows, reps,
      MachineJson().c_str(), oracle_ms);
  TablePrinter table({"build", "workers", "median_ms", "min_ms", "max_ms"});
  for (size_t w = 0; w < widths.size(); ++w) {
    const Spread spread = SpreadOf(samples[w]);
    fprintf(stderr, "layout workers=%zu median=%.1fms [%.1f, %.1f]\n",
            widths[w], spread.median, spread.min, spread.max);
    table.AddRow({"layout", std::to_string(widths[w]), Ms(spread.median),
                  Ms(spread.min), Ms(spread.max)});
    json += StringFormat("%s{\"workers\":%zu,\"layout_ms\":%s}",
                         w == 0 ? "" : ",", widths[w],
                         SpreadJson(spread).c_str());
  }

  json += "]}";

  table.Print();
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
