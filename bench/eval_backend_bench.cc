// Evaluation-layer shootout: the direct scan, the materialized scan
// serial ("serial_scan") and pooled ("parallel"), and the cell-sorted grid
// index over TPC-H-shaped lineitem data, across table sizes and
// dimensionalities, on the three workloads ACQUIRE actually issues (cell
// queries, aligned boxes, off-grid repartition probes). The headline
// speedups compare the cell-sorted index with the serial scan. Also
// measures what the persistent pool buys over spawning threads per box
// query on repeated small boxes.
//
// Emits one line of JSON on stdout (committed as BENCH_eval_backend.json),
// stamped with the machine and build it ran on; human-readable progress
// goes to stderr. ACQ_BENCH_FULL=1 raises the top table size to 10^6
// rows.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/eval_kernel.h"
#include "exec/parallel_evaluation.h"
#include "index/cell_sorted.h"

namespace acquire {
namespace bench {
namespace {

constexpr size_t kSpawnThreads = 4;

/// The design the pooled scan replaced: a materialized matrix whose every
/// box query spawns fresh threads, pays their start-up cost, and joins
/// them. Kept bench-local as the pool-vs-spawn baseline.
class SpawnScanLayer {
 public:
  explicit SpawnScanLayer(const AcqTask* task) : task_(task) {}

  Status Prepare() { return BuildNeededMatrix(*task_, nullptr, &matrix_); }

  AggregateOps::State EvaluateBox(const std::vector<PScoreRange>& box) {
    const AggregateOps& ops = *task_->agg.ops;
    const size_t n = matrix_.rows;
    const size_t chunk = (n + kSpawnThreads - 1) / kSpawnThreads;
    std::vector<AggregateOps::State> partials(kSpawnThreads, ops.Init());
    std::vector<std::thread> workers;
    for (size_t c = 0; c < kSpawnThreads; ++c) {
      workers.emplace_back([&, c] {
        const size_t begin = c * chunk;
        const size_t end = std::min(n, begin + chunk);
        if (begin >= end) return;
        std::vector<uint8_t> scratch(end - begin);
        partials[c] =
            ScanBoxRange(ops, matrix_, box, begin, end, scratch.data());
      });
    }
    for (auto& t : workers) t.join();
    AggregateOps::State state = ops.Init();
    for (const auto& p : partials) ops.Merge(&state, p);
    return state;
  }

 private:
  const AcqTask* task_;
  NeededMatrix matrix_;
};

std::vector<std::vector<PScoreRange>> MakeWorkload(const std::string& kind,
                                                   size_t d, double step,
                                                   size_t count,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PScoreRange>> boxes;
  boxes.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    std::vector<PScoreRange> box(d);
    for (auto& r : box) {
      if (kind == "aligned_cell") {
        r = CellRangeForLevel(static_cast<int64_t>(rng.NextBounded(8)), step);
      } else if (kind == "aligned_box") {
        // From level 0 through a random level: the shape Algorithm 3's
        // shell expansion asks when it merges whole sub-grids.
        int64_t hi = 1 + static_cast<int64_t>(rng.NextBounded(6));
        r = PScoreRange{-1.0, static_cast<double>(hi) * step};
      } else {  // unaligned_box: off-grid repartition probe
        double hi = rng.NextDouble(step, 5.0 * step) + 0.37;
        r = PScoreRange{rng.NextBool(0.5) ? -1.0 : hi / 3.0, hi};
      }
    }
    boxes.push_back(std::move(box));
  }
  return boxes;
}

/// Per-query time of `layer` on `boxes`, in milliseconds.
double TimePerQueryMs(EvaluationLayer* layer,
                      const std::vector<std::vector<PScoreRange>>& boxes) {
  double checksum = 0.0;
  Stopwatch sw;
  for (const auto& box : boxes) {
    auto state = layer->EvaluateBox(box);
    ACQ_CHECK(state.ok()) << state.status().ToString();
    checksum += state->empty() ? 0.0 : (*state)[0];
  }
  double ms = sw.ElapsedMillis();
  if (checksum == 12345.6789) fprintf(stderr, "~");  // defeat DCE
  return ms / static_cast<double>(boxes.size());
}

/// The layers under test, by the name the JSON reports them under.
const std::vector<std::string> kLayers = {"direct", "serial_scan", "parallel",
                                          "cellsorted"};

std::unique_ptr<EvaluationLayer> MakeLayer(const std::string& name,
                                           const AcqTask* task, double step) {
  if (name == "direct") return std::make_unique<DirectEvaluationLayer>(task);
  if (name == "serial_scan") {
    return std::make_unique<ParallelEvaluationLayer>(task, nullptr);
  }
  if (name == "parallel") {
    return std::make_unique<ParallelEvaluationLayer>(task,
                                                     &ThreadPool::Shared());
  }
  return std::make_unique<CellSortedEvaluationLayer>(task, step);
}

size_t RepsFor(const std::string& layer, const std::string& workload,
               size_t n) {
  if (layer == "direct") return 4;  // scans + recomputes
  if (layer == "cellsorted" && workload != "unaligned_box") {
    return n >= 500000 ? 500 : 200;
  }
  return n >= 500000 ? 12 : 40;  // matrix-scan cost per query
}

struct BackendRun {
  double prepare_ms = 0.0;
  std::map<std::string, double> per_query_ms;  // workload -> ms
};

}  // namespace

int Main() {
  const size_t top_rows = EnvRows(200000);
  std::vector<size_t> sizes = {10000, 100000};
  if (top_rows > 100000) sizes.push_back(top_rows);
  const std::vector<size_t> dims = {1, 2, 3, 4};
  const std::vector<std::string> workloads = {"aligned_cell", "aligned_box",
                                              "unaligned_box"};
  std::string json = "{\"bench\":\"eval_backend\",\"machine\":" +
                     MachineJson() + ",\"configs\":[";
  bool first_config = true;
  double scan_cell_ms = 0.0, scan_box_ms = 0.0;
  double sorted_cell_ms = 0.0, sorted_box_ms = 0.0;

  for (size_t n : sizes) {
    Catalog catalog = MakeLineitemCatalog(n);
    for (size_t d : dims) {
      RatioTask ratio = MakeLineitemTask(catalog, d, 0.5);
      const AcqTask& task = ratio.task;
      const double step = 10.0 / static_cast<double>(d);
      fprintf(stderr, "config n=%zu d=%zu\n", n, d);

      if (!first_config) json += ",";
      first_config = false;
      json += StringFormat("{\"n\":%zu,\"d\":%zu,\"backends\":{", n, d);

      bool first_backend = true;
      for (const std::string& name : kLayers) {
        std::unique_ptr<EvaluationLayer> layer = MakeLayer(name, &task, step);
        Stopwatch prep;
        ACQ_CHECK(layer->Prepare().ok());
        BackendRun run;
        run.prepare_ms = prep.ElapsedMillis();
        for (const std::string& workload : workloads) {
          auto boxes = MakeWorkload(workload, d, step,
                                    RepsFor(name, workload, n),
                                    n * 31 + d * 7);
          run.per_query_ms[workload] = TimePerQueryMs(layer.get(), boxes);
        }
        if (n == sizes.back() && d == 3) {
          if (name == "serial_scan") {
            scan_cell_ms = run.per_query_ms["aligned_cell"];
            scan_box_ms = run.per_query_ms["aligned_box"];
          } else if (name == "cellsorted") {
            sorted_cell_ms = run.per_query_ms["aligned_cell"];
            sorted_box_ms = run.per_query_ms["aligned_box"];
          }
        }
        if (!first_backend) json += ",";
        first_backend = false;
        json += StringFormat(
            "\"%s\":{\"prepare_ms\":%.3f,\"aligned_cell_ms\":%.6f,"
            "\"aligned_box_ms\":%.6f,\"unaligned_box_ms\":%.6f}",
            name.c_str(), run.prepare_ms,
            run.per_query_ms["aligned_cell"], run.per_query_ms["aligned_box"],
            run.per_query_ms["unaligned_box"]);
      }
      json += "}}";
    }
  }

  // Pool vs per-call spawn on repeated small boxes: the scan is cheap, so
  // thread start-up dominates the spawning design.
  const size_t small_n = 50000;
  Catalog small_catalog = MakeLineitemCatalog(small_n);
  RatioTask small_ratio = MakeLineitemTask(small_catalog, 2, 0.5);
  auto small_boxes = MakeWorkload("unaligned_box", 2, 5.0, 300, 99);
  SpawnScanLayer spawn(&small_ratio.task);
  ACQ_CHECK(spawn.Prepare().ok());
  ThreadPool pool(kSpawnThreads);
  ParallelEvaluationLayer pooled(&small_ratio.task, &pool);
  ACQ_CHECK(pooled.Prepare().ok());
  Stopwatch spawn_sw;
  for (const auto& box : small_boxes) spawn.EvaluateBox(box);
  const double spawn_ms = spawn_sw.ElapsedMillis() / small_boxes.size();
  Stopwatch pool_sw;
  for (const auto& box : small_boxes) {
    ACQ_CHECK(pooled.EvaluateBox(box).ok());
  }
  const double pool_ms = pool_sw.ElapsedMillis() / small_boxes.size();

  const double cell_speedup =
      sorted_cell_ms > 0.0 ? scan_cell_ms / sorted_cell_ms : 0.0;
  const double box_speedup =
      sorted_box_ms > 0.0 ? scan_box_ms / sorted_box_ms : 0.0;
  json += StringFormat(
      "],\"pool_vs_spawn\":{\"n\":%zu,\"d\":2,\"spawn_ms\":%.6f,"
      "\"pool_ms\":%.6f,\"speedup_pool_vs_spawn\":%.2f},"
      "\"speedup_cellsorted_vs_serial_scan_cell\":%.2f,"
      "\"speedup_cellsorted_vs_serial_scan_box\":%.2f,"
      "\"speedup_cellsorted_vs_serial_scan\":%.2f}",
      small_n, spawn_ms, pool_ms, pool_ms > 0.0 ? spawn_ms / pool_ms : 0.0,
      cell_speedup, box_speedup, std::min(cell_speedup, box_speedup));
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
