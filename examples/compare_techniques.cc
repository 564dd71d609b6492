// Runs the same Aggregation Constrained Query through every implemented
// technique — ACQUIRE and the Section 8.2 baselines — and prints a
// side-by-side comparison, a miniature of the paper's evaluation.
//
// Run:  ./build/examples/compare_techniques

#include <cstdio>

#include "baselines/binsearch.h"
#include "baselines/topk.h"
#include "baselines/tqgen.h"
#include "core/acquire.h"
#include "index/cell_sorted.h"
#include "workload/tpch_gen.h"
#include "workload/workload.h"

using namespace acquire;  // NOLINT — brevity in example code

int main() {
  Catalog catalog;
  TpchOptions tpch;
  tpch.lineitems = 100000;
  if (Status s = GenerateTpch(tpch, &catalog); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  RatioTaskOptions workload;
  workload.table = "lineitem";
  workload.columns = {"l_quantity", "l_extendedprice", "l_shipdays"};
  workload.selectivity = 0.05;
  workload.ratio = 0.4;  // ask for 2.5x the original count
  auto rt = BuildRatioTask(catalog, workload);
  if (!rt.ok()) {
    fprintf(stderr, "%s\n", rt.status().ToString().c_str());
    return 1;
  }
  AcqTask& task = rt->task;
  printf("Task: %s\n", task.ToString().c_str());
  printf("Original aggregate %.0f, target %.0f\n\n", rt->base_aggregate,
         task.constraint.target);
  printf("%-12s %10s %10s %12s %10s\n", "technique", "time_ms", "error",
         "refinement", "queries");

  {
    RefinedSpace space(&task, 10.0, Norm::L1());
    CellSortedEvaluationLayer layer(&task, space.step());
    auto r = RunAcquire(task, &layer, {});
    if (r.ok() && !r->queries.empty()) {
      printf("%-12s %10.1f %10.4f %12.2f %10llu\n", "ACQUIRE",
             r->elapsed_ms, r->queries[0].error, r->queries[0].qscore,
             static_cast<unsigned long long>(r->cell_queries));
    }
  }
  if (auto r = RunTopK(task, Norm::L1()); r.ok()) {
    printf("%-12s %10.1f %10.4f %12.2f %10llu\n", "Top-k", r->elapsed_ms,
           r->error, r->qscore,
           static_cast<unsigned long long>(r->queries_executed));
  }
  {
    DirectEvaluationLayer layer(&task);
    if (auto r = RunBinSearch(task, &layer, Norm::L1(), {}); r.ok()) {
      printf("%-12s %10.1f %10.4f %12.2f %10llu\n", "BinSearch",
             r->elapsed_ms, r->error, r->qscore,
             static_cast<unsigned long long>(r->queries_executed));
    }
  }
  {
    DirectEvaluationLayer layer(&task);
    if (auto r = RunTqGen(task, &layer, Norm::L1(), {}); r.ok()) {
      printf("%-12s %10.1f %10.4f %12.2f %10llu\n", "TQGen", r->elapsed_ms,
             r->error, r->qscore,
             static_cast<unsigned long long>(r->queries_executed));
    }
  }
  return 0;
}
