// Quickstart: the whole ACQUIRE workflow in one file.
//
//  1. build a table and register it in a catalog,
//  2. write an Aggregation Constrained Query in SQL
//     (CONSTRAINT + NOREFINE keywords, Section 2.1 of the paper),
//  3. plan it, run ACQUIRE, and print the recommended refined queries.
//
// Run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "common/random.h"
#include "core/acquire.h"
#include "exec/parallel_evaluation.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "storage/catalog.h"

using namespace acquire;  // NOLINT — brevity in example code

int main() {
  // --- 1. A products table with 10,000 rows. ---
  Catalog catalog;
  auto products = std::make_shared<Table>(
      "products", Schema({{"product_id", DataType::kInt64, ""},
                          {"price", DataType::kDouble, ""},
                          {"rating", DataType::kDouble, ""},
                          {"category", DataType::kString, ""}}));
  const char* categories[] = {"electronics", "home", "toys", "sports"};
  Rng rng(2024);
  for (int64_t id = 1; id <= 10000; ++id) {
    Status s = products->AppendRow(
        {Value(id), Value(rng.NextDouble(1.0, 500.0)),
         Value(rng.NextDouble(1.0, 5.0)),
         Value(categories[rng.NextBounded(4)])});
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (Status s = catalog.AddTable(products); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // --- 2. An ACQ: we want exactly ~2000 cheap, well-rated products, but
  // the original predicates only match a few hundred. The category filter
  // must not change (NOREFINE). ---
  const char* sql =
      "SELECT * FROM products "
      "CONSTRAINT COUNT(*) = 2K "
      "WHERE price < 50 AND rating >= 4.5 "
      "AND category IN ('electronics', 'toys') NOREFINE";

  // --- 3. Parse + bind + plan, then run ACQUIRE. ---
  Binder binder(&catalog);
  auto task = binder.PlanSql(sql);
  if (!task.ok()) {
    fprintf(stderr, "planning failed: %s\n", task.status().ToString().c_str());
    return 1;
  }
  printf("Original ACQ:\n%s\n\n", RenderOriginalSql(*task).c_str());

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  AcquireOptions options;
  options.gamma = 10.0;  // proximity threshold (Definition 1b)
  options.delta = 0.05;  // aggregate error threshold (Definition 1a)
  auto result = RunAcquire(*task, &layer, options);
  if (!result.ok()) {
    fprintf(stderr, "ACQUIRE failed: %s\n",
            result.status().ToString().c_str());
    return 1;
  }

  if (!result->satisfied) {
    printf("No refinement met the constraint; closest query:\n  %s\n",
           result->best.ToString().c_str());
    return 0;
  }
  printf("ACQUIRE examined %llu refined queries (%llu cell executions) in "
         "%.1f ms and recommends:\n\n",
         static_cast<unsigned long long>(result->queries_explored),
         static_cast<unsigned long long>(result->cell_queries),
         result->elapsed_ms);
  for (size_t i = 0; i < result->queries.size(); ++i) {
    const RefinedQuery& q = result->queries[i];
    printf("#%zu  QScore=%.2f  COUNT=%g  error=%.3f\n%s\n\n", i + 1,
           q.qscore, q.aggregate, q.error,
           RenderRefinedSql(*task, q).c_str());
  }
  return 0;
}
