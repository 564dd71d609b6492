// Index prepare: the cell-sorted layout build (one stable radix sort of
// the rows by grid level, index/parallel_prepare.h) timed at pool widths
// 1/2/4, plus the amortized cost of live ingestion (append + staged delta
// sync + merge) against a full rebuild. Every timed build must be
// bit-identical to the brute-force oracle (tests/layout_oracle.h), and
// every delta-maintained answer bit-identical to a rebuilt layer, before
// its time is reported: a fast wrong build is worthless.
//
// Emits one line of JSON on stdout (committed as BENCH_index_prepare.json):
// median and spread over the repetitions per pool width, and the machine
// and build the figures came from. Human-readable progress goes to stderr.
// ACQ_BENCH_ROWS=<n> shrinks the catalog for a quick pass; the default is
// the paper-scale 10^6.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "../tests/layout_oracle.h"
#include "bench_util.h"
#include "common/random.h"
#include "exec/eval_kernel.h"
#include "exec/thread_pool.h"
#include "index/cell_sorted.h"
#include "index/parallel_prepare.h"

namespace acquire {
namespace bench {
namespace {

// Schema-driven synthetic rows for the append path: values land inside the
// generated lineitem domains so appended rows hit populated grid regions.
std::vector<std::vector<Value>> MakeRows(const Schema& schema, size_t count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    std::vector<Value> row;
    row.reserve(schema.num_fields());
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      switch (schema.field(f).type) {
        case DataType::kInt64:
          row.emplace_back(rng.NextInt(1, 1000));
          break;
        case DataType::kDouble:
          row.emplace_back(rng.NextDouble(0.0, 50.0));
          break;
        case DataType::kString:
          row.emplace_back(std::string("appended"));
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

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

  // --- live ingestion: staged deltas vs full rebuild ----------------------
  // N small batches appended to the relation; each batch is staged by the
  // next query's delta sync instead of rebuilding. The comparison is
  // (staging all batches + one final merge) vs (a full rebuild per batch),
  // which is what a naive maintain-by-rebuild strategy would pay.
  const size_t batches = 8;
  const size_t batch_rows = std::max<size_t>(64, rows / 2000);
  // Append straight to the task's relation (which may be a NOREFINE-filtered
  // derivation of the catalog table): the delta machinery watches
  // relation->num_rows(), exactly like a served table would grow.
  Table* relation = task.relation.get();

  CellSortedEvaluationLayer layer(&task, step);
  ACQ_CHECK(layer.Prepare().ok());
  // Keep every batch below the merge threshold so the staging path (not an
  // absorb) is what gets timed.
  layer.set_delta_merge_threshold(batches * batch_rows * 2);
  const std::vector<PScoreRange> probe(d, CellRangeForLevel(1, step));

  double staging_ms = 0.0;
  for (size_t b = 0; b < batches; ++b) {
    ACQ_CHECK(relation
                  ->AppendRows(
                      MakeRows(relation->schema(), batch_rows, 1000 + b))
                  .ok());
    Stopwatch sw;
    ACQ_CHECK(layer.EvaluateBox(probe).ok());
    staging_ms += sw.ElapsedMillis();
  }
  ACQ_CHECK(layer.staged_delta_rows() == batches * batch_rows);

  Stopwatch t_merge;
  ACQ_CHECK(layer.MergeDeltas().ok());
  const double merge_ms = t_merge.ElapsedMillis();

  // One full rebuild over the grown relation: both the delta correctness
  // reference and the per-batch cost of the naive strategy.
  CellSortedEvaluationLayer rebuilt(&task, step);
  Stopwatch t_rebuild;
  ACQ_CHECK(rebuilt.Prepare().ok());
  const double rebuild_ms = t_rebuild.ElapsedMillis();
  auto got = layer.EvaluateBox(probe);
  auto expected = rebuilt.EvaluateBox(probe);
  ACQ_CHECK(got.ok() && expected.ok());
  ACQ_CHECK(*got == *expected) << "delta-maintained layer diverged";

  const double delta_total = staging_ms + merge_ms;
  const double naive_total = rebuild_ms * static_cast<double>(batches);
  const double amortized_speedup =
      delta_total > 0.0 ? naive_total / delta_total : 0.0;
  fprintf(stderr,
          "delta: %zu batches x %zu rows staging=%.2fms merge=%.2fms "
          "rebuild=%.2fms amortized_speedup=%.1f\n",
          batches, batch_rows, staging_ms, merge_ms, rebuild_ms,
          amortized_speedup);
  table.AddRow({"delta-maintain", "-", Ms(delta_total), "-", "-"});

  json += StringFormat(
      "],\"delta\":{\"batches\":%zu,"
      "\"rows_per_batch\":%zu,\"staging_ms\":%.3f,\"merge_ms\":%.3f,"
      "\"rebuild_ms\":%.3f,\"amortized_speedup\":%.2f}}",
      batches, batch_rows, staging_ms, merge_ms, rebuild_ms,
      amortized_speedup);

  table.Print();
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
