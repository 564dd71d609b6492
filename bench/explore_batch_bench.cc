// Layer-batched Explore vs the sequential explorer: end-to-end RunAcquire
// on the cell-sorted backend across dimensionalities and table sizes. The
// batched driver drains each expand layer and answers all of its cell
// sub-queries in one merged CSR sweep (or one thread-pool fan-out on
// layers without a native batch path); the Eq. 17 merges stay sequential,
// so both modes produce bit-identical results — asserted here on every
// config before timing is reported. Each config runs both modes five
// times, alternating; the JSON gives the median and the min..max spread,
// the batched drain cost per coordinate, each mode's peak aggregate-store
// bytes, and the machine and build that produced it. The drain is what the
// driver's drain_ms times: the Eq. 17 merges together with the
// investigation of every coordinate (error function, best tracking, answer
// building, overshoot repartitioning).
//
// Emits one line of JSON on stdout (committed as BENCH_explore_batch.json);
// human-readable progress goes to stderr. ACQ_BENCH_ROWS=<n> shrinks the
// top table size for a quick pass; the default is the paper-scale 10^6.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/expand.h"
#include "index/cell_sorted.h"

namespace acquire {
namespace bench {
namespace {

/// One mode's repetitions. Timings are per repetition; the counters and
/// the answer are deterministic, so the last repetition's stand for all.
struct ModeRun {
  std::vector<double> elapsed_ms;  // Prepare excluded
  std::vector<double> expand_ms;
  std::vector<double> explore_ms;
  std::vector<double> drain_ms;  // ExecStats::drain_ms
  uint64_t queries_explored = 0;
  uint64_t cell_queries = 0;
  uint64_t store_peak_bytes = 0;
  double best_aggregate = 0.0;
  bool satisfied = false;
};

void RunOnce(const AcqTask& task, EvaluationLayer* layer,
             const AcquireOptions& options, ModeRun* run) {
  auto result = RunAcquire(task, layer, options);
  ACQ_CHECK(result.ok()) << result.status().ToString();
  run->elapsed_ms.push_back(result->elapsed_ms);
  run->expand_ms.push_back(result->exec_stats.expand_ms);
  run->explore_ms.push_back(result->exec_stats.explore_ms);
  run->drain_ms.push_back(result->exec_stats.drain_ms);
  run->queries_explored = result->queries_explored;
  run->cell_queries = result->cell_queries;
  run->store_peak_bytes = result->exec_stats.store_peak_bytes;
  run->best_aggregate = result->best.aggregate;
  run->satisfied = result->satisfied;
}

/// Number of expand layers the search consumed: replay the deterministic
/// generator over the same space until `explored` coordinates have been
/// produced, counting score changes. (A partially drained hit layer counts
/// as one layer, matching what the batched driver executes.)
size_t CountLayers(const AcqTask& task, const AcquireOptions& options,
                   uint64_t explored) {
  RefinedSpace space(&task, options.gamma, options.norm);
  BfsGenerator gen(&space);
  GridCoord coord;
  size_t layers = 0;
  double last_score = -1.0;
  for (uint64_t i = 0; i < explored && gen.Next(&coord); ++i) {
    if (gen.CurrentScore() != last_score) {
      ++layers;
      last_score = gen.CurrentScore();
    }
  }
  return layers;
}

}  // namespace

int Main() {
  const size_t top_rows = EnvRows(1000000);
  std::vector<size_t> sizes = {100000};
  if (top_rows != sizes.back()) sizes.push_back(top_rows);
  const std::vector<size_t> dims = {1, 2, 3, 4};
  const int reps = 5;

  std::string json = "{\"bench\":\"explore_batch\",\"machine\":" +
                     MachineJson() + StringFormat(",\"reps\":%d", reps) +
                     ",\"configs\":[";
  bool first_config = true;
  double headline_speedup = 0.0;  // 1e6 rows (= top size), d = 3
  double headline_drain_ns = 0.0;  // batched drain ns/coord, top size, d = 4

  TablePrinter table({"n", "d", "layers", "queries", "seq_ms", "batch_ms",
                      "speedup", "drain_ns/coord"});
  for (size_t n : sizes) {
    Catalog catalog = MakeLineitemCatalog(n);
    for (size_t d : dims) {
      RatioTask ratio = MakeLineitemTask(catalog, d, 0.3);
      const AcqTask& task = ratio.task;

      AcquireOptions options;
      options.delta = 0.05;
      // The batched pipeline earns its keep on deep searches with wide
      // layers; gamma = 12 puts the BFS hit layer at ~10d (Figure 9's
      // ~120-PScore refinement need) without making d = 4 combinatorial.
      options.gamma = 12.0;
      const double step = options.gamma / static_cast<double>(d);

      CellSortedEvaluationLayer layer(&task, step);
      Stopwatch prep;
      ACQ_CHECK(layer.Prepare().ok());
      const double prepare_ms = prep.ElapsedMillis();

      // Modes alternate within each repetition, so drift on the host
      // (frequency, neighbours) lands on both alike.
      ModeRun seq;
      ModeRun bat;
      for (int r = 0; r < reps; ++r) {
        options.batch_explore = BatchExplore::kOff;
        RunOnce(task, &layer, options, &seq);
        options.batch_explore = BatchExplore::kOn;
        RunOnce(task, &layer, options, &bat);
      }

      // The two modes must be observationally identical before their
      // times are comparable.
      ACQ_CHECK(seq.satisfied == bat.satisfied &&
                seq.queries_explored == bat.queries_explored &&
                seq.cell_queries == bat.cell_queries &&
                seq.best_aggregate == bat.best_aggregate)
          << "batched explore diverged from sequential at n=" << n
          << " d=" << d;

      const size_t layers = CountLayers(task, options, seq.queries_explored);
      const Spread seq_ms = SpreadOf(seq.elapsed_ms);
      const Spread bat_ms = SpreadOf(bat.elapsed_ms);
      const Spread drain_ms = SpreadOf(bat.drain_ms);
      std::vector<double> ns_per_coord;
      for (double ms : bat.drain_ms) {
        ns_per_coord.push_back(
            bat.queries_explored > 0
                ? ms * 1e6 / static_cast<double>(bat.queries_explored)
                : 0.0);
      }
      const Spread drain_ns = SpreadOf(ns_per_coord);
      const double speedup =
          bat_ms.median > 0.0 ? seq_ms.median / bat_ms.median : 0.0;
      if (n == top_rows && d == 3) headline_speedup = speedup;
      if (n == top_rows && d == 4) headline_drain_ns = drain_ns.median;

      fprintf(stderr,
              "config n=%zu d=%zu layers=%zu seq=%.1fms bat=%.1fms "
              "drain=%.1fns/coord\n",
              n, d, layers, seq_ms.median, bat_ms.median, drain_ns.median);
      table.AddRow({std::to_string(n), std::to_string(d),
                    std::to_string(layers),
                    std::to_string(seq.queries_explored), Ms(seq_ms.median),
                    Ms(bat_ms.median), StringFormat("%.2f", speedup),
                    StringFormat("%.1f", drain_ns.median)});

      if (!first_config) json += ",";
      first_config = false;
      json += StringFormat(
          "{\"n\":%zu,\"d\":%zu,\"prepare_ms\":%.2f,\"layers\":%zu,"
          "\"queries_explored\":%llu,\"cell_queries\":%llu,",
          n, d, prepare_ms, layers,
          static_cast<unsigned long long>(seq.queries_explored),
          static_cast<unsigned long long>(seq.cell_queries));
      json += "\"sequential\":{\"elapsed_ms\":" + SpreadJson(seq_ms) +
              StringFormat(",\"expand_ms\":%.3f,\"explore_ms\":%.3f,"
                           "\"store_peak_bytes\":%llu},",
                           SpreadOf(seq.expand_ms).median,
                           SpreadOf(seq.explore_ms).median,
                           static_cast<unsigned long long>(
                               seq.store_peak_bytes));
      json += "\"batched\":{\"elapsed_ms\":" + SpreadJson(bat_ms) +
              StringFormat(",\"expand_ms\":%.3f,\"explore_ms\":%.3f,",
                           SpreadOf(bat.expand_ms).median,
                           SpreadOf(bat.explore_ms).median) +
              "\"drain_ms\":" + SpreadJson(drain_ms) +
              ",\"drain_ns_per_coord\":" + SpreadJson(drain_ns, "%.1f") +
              StringFormat(",\"store_peak_bytes\":%llu},",
                           static_cast<unsigned long long>(
                               bat.store_peak_bytes)) +
              StringFormat("\"speedup\":%.2f}", speedup);
    }
  }
  json += StringFormat(
      "],\"speedup_top_rows_d3\":%.2f,"
      "\"drain_ns_per_coord_top_rows_d4\":%.1f}",
      headline_speedup, headline_drain_ns);

  table.Print();
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
