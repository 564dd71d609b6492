#ifndef ACQUIRE_BENCH_BENCH_UTIL_H_
#define ACQUIRE_BENCH_BENCH_UTIL_H_

// Shared harness for the paper-figure benchmarks (Section 8).
//
// Cost model. All baselines execute full refined queries against a
// DirectEvaluationLayer — one relation scan per probe, modelling the
// paper's "all query execution tasks are delegated to the DBMS". ACQUIRE
// runs against the Section 7.4 grid index, the cell-sorted evaluation
// layer (its build time is charged to ACQUIRE), realizing the paper's
// premise that a cell query touches only its own cell and is executed at
// most once; the ablation_eval_layer bench quantifies exactly what this
// choice is worth.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"

#include "baselines/binsearch.h"
#include "baselines/topk.h"
#include "baselines/tqgen.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/acquire.h"
#include "index/cell_sorted.h"
#include "workload/tpch_gen.h"
#include "workload/workload.h"

namespace acquire {
namespace bench {

inline size_t EnvRows(size_t dflt) {
  if (const char* full = std::getenv("ACQ_BENCH_FULL");
      full != nullptr && full[0] == '1') {
    return 1000000;
  }
  if (const char* rows = std::getenv("ACQ_BENCH_ROWS")) {
    auto parsed = ParseNumberWithSuffix(rows);
    if (parsed.ok() && *parsed > 0) return static_cast<size_t>(*parsed);
  }
  return dflt;
}

/// Measured outcome of one technique on one task.
struct MethodMetrics {
  double time_ms = 0.0;
  double error = 0.0;
  double qscore = 0.0;
  uint64_t queries = 0;  // (cell) queries executed against the layer
  bool ok = false;
};

inline Catalog MakeLineitemCatalog(size_t rows, double zipf_theta = 0.0,
                                   uint64_t seed = 42) {
  Catalog catalog;
  TpchOptions options;
  options.lineitems = rows;
  options.suppliers = std::max<size_t>(100, rows / 200);
  options.parts = std::max<size_t>(200, rows / 100);
  options.zipf_theta = zipf_theta;
  options.seed = seed;
  Status s = GenerateTpch(options, &catalog);
  ACQ_CHECK(s.ok()) << s.ToString();
  return catalog;
}

inline RatioTask MakeLineitemTask(const Catalog& catalog, size_t d,
                                  double ratio,
                                  AggregateKind agg = AggregateKind::kCount) {
  static const char* const kColumns[] = {"l_quantity", "l_extendedprice",
                                         "l_shipdays", "l_discount", "l_tax"};
  RatioTaskOptions options;
  options.table = "lineitem";
  options.columns.assign(kColumns, kColumns + d);
  // Highly selective original query, so even ratio 0.1 (Aexp = 10x the
  // original aggregate) stays reachable inside the data domain.
  options.selectivity = 0.05;
  options.ratio = ratio;
  options.agg_kind = agg;
  if (agg != AggregateKind::kCount) options.agg_column = "l_extendedprice";
  auto task = BuildRatioTask(catalog, options);
  ACQ_CHECK(task.ok()) << task.status().ToString();
  return std::move(task).value();
}

inline MethodMetrics RunAcquireMethod(const AcqTask& task,
                                      AcquireOptions options = {}) {
  MethodMetrics m;
  Stopwatch sw;
  RefinedSpace space(&task, options.gamma, options.norm);
  CellSortedEvaluationLayer layer(&task, space.step());
  Status prep = layer.Prepare();  // index build is charged to ACQUIRE
  if (!prep.ok()) return m;
  auto result = RunAcquire(task, &layer, options);
  m.time_ms = sw.ElapsedMillis();
  if (!result.ok()) return m;
  m.ok = result->satisfied;
  const RefinedQuery& answer =
      result->queries.empty() ? result->best : result->queries.front();
  m.error = answer.error;
  m.qscore = answer.qscore;
  m.queries = result->cell_queries;
  return m;
}

inline MethodMetrics RunTopKMethod(const AcqTask& task) {
  MethodMetrics m;
  auto result = RunTopK(task, Norm::L1());
  if (!result.ok()) return m;
  m.ok = result->satisfied;
  m.time_ms = result->elapsed_ms;
  m.error = result->error;
  m.qscore = result->qscore;
  m.queries = result->queries_executed;
  return m;
}

inline MethodMetrics RunBinSearchMethod(const AcqTask& task,
                                        BinSearchOptions options = {}) {
  MethodMetrics m;
  DirectEvaluationLayer layer(&task);
  auto result = RunBinSearch(task, &layer, Norm::L1(), options);
  if (!result.ok()) return m;
  m.ok = result->satisfied;
  m.time_ms = result->elapsed_ms;
  m.error = result->error;
  m.qscore = result->qscore;
  m.queries = result->queries_executed;
  return m;
}

inline MethodMetrics RunTqGenMethod(const AcqTask& task,
                                    TqGenOptions options = {}) {
  MethodMetrics m;
  DirectEvaluationLayer layer(&task);
  auto result = RunTqGen(task, &layer, Norm::L1(), options);
  if (!result.ok()) return m;
  m.ok = result->satisfied;
  m.time_ms = result->elapsed_ms;
  m.error = result->error;
  m.qscore = result->qscore;
  m.queries = result->queries_executed;
  return m;
}

/// BinSearch run over several deterministic predicate orders; reports the
/// median time and the min/max error, exposing the order instability the
/// paper highlights in Figures 8(b) and 9(b).
struct BinSearchSpread {
  double median_time_ms = 0.0;
  double min_error = 0.0;
  double max_error = 0.0;
  double min_qscore = 0.0;
  double max_qscore = 0.0;
};

inline BinSearchSpread RunBinSearchOrders(const AcqTask& task,
                                          int num_orders = 4) {
  std::vector<double> times;
  BinSearchSpread spread;
  spread.min_error = 1e300;
  spread.min_qscore = 1e300;
  std::vector<size_t> order(task.d());
  for (size_t i = 0; i < task.d(); ++i) order[i] = i;
  Rng rng(123);
  for (int trial = 0; trial < num_orders; ++trial) {
    BinSearchOptions options;
    options.order = order;
    MethodMetrics m = RunBinSearchMethod(task, options);
    times.push_back(m.time_ms);
    spread.min_error = std::min(spread.min_error, m.error);
    spread.max_error = std::max(spread.max_error, m.error);
    spread.min_qscore = std::min(spread.min_qscore, m.qscore);
    spread.max_qscore = std::max(spread.max_qscore, m.qscore);
    rng.Shuffle(&order);
  }
  std::sort(times.begin(), times.end());
  spread.median_time_ms = times[times.size() / 2];
  return spread;
}

/// Fixed-width text table writer for paper-style series.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size());
    for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      printf("\n");
    };
    print_row(header_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Ms(double v) { return StringFormat("%.1f", v); }
inline std::string Err(double v) { return StringFormat("%.4f", v); }
inline std::string Score(double v) { return StringFormat("%.2f", v); }

// Build stamps, defined per bench target by bench/CMakeLists.txt.
#ifndef ACQ_BENCH_BUILD_TYPE
#define ACQ_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ACQ_BENCH_GIT_SHA
#define ACQ_BENCH_GIT_SHA "unknown"
#endif

/// The machine and build a bench result came from, as a JSON object:
/// hardware threads, compiler, CMAKE_BUILD_TYPE, whether failpoint sites
/// are compiled in, and the git revision the bench was configured from
/// ("-dirty" when the tree had uncommitted changes).
inline std::string MachineJson() {
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  return StringFormat(
      "{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"failpoints\":%s,\"git_sha\":\"%s\"}",
      std::thread::hardware_concurrency(), compiler, ACQ_BENCH_BUILD_TYPE,
      FailpointRegistry::compiled_in() ? "true" : "false", ACQ_BENCH_GIT_SHA);
}

/// Median and spread of repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread SpreadOf(std::vector<double> samples) {
  Spread out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  out.median = n % 2 == 1 ? samples[n / 2]
                          : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  out.min = samples.front();
  out.max = samples.back();
  return out;
}

inline std::string SpreadJson(const Spread& s, const char* fmt = "%.3f") {
  const std::string f = std::string("{\"median\":") + fmt + ",\"min\":" +
                        fmt + ",\"max\":" + fmt + "}";
  return StringFormat(f.c_str(), s.median, s.min, s.max);
}

}  // namespace bench
}  // namespace acquire

#endif  // ACQUIRE_BENCH_BENCH_UTIL_H_
