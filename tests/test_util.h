#ifndef ACQUIRE_TESTS_TEST_UTIL_H_
#define ACQUIRE_TESTS_TEST_UTIL_H_

// Shared helpers for core-algorithm tests: small synthetic tasks with
// controllable dimensionality, aggregate and constraint.

#include <memory>

#include "common/random.h"
#include "exec/planner.h"
#include "exec/thread_pool.h"
#include "storage/catalog.h"

namespace acquire {
namespace test_util {

// A 4-worker pool for pooled layers, so their chunking does not depend on
// the machine's core count.
inline ThreadPool& FourWorkerPool() {
  static ThreadPool pool(4);
  return pool;
}

struct SyntheticTask {
  Catalog catalog;  // owns the data; must outlive `task`
  AcqTask task;
};

struct SyntheticOptions {
  size_t rows = 2000;
  size_t d = 2;  // at most 5
  double target = 100.0;
  ConstraintOp op = ConstraintOp::kEq;
  AggregateKind agg = AggregateKind::kCount;
  double bound = 30.0;  // per-dim predicate: c_i <= bound over [0, 100]
  uint64_t seed = 1;
};

// A d-predicate COUNT/SUM/... task over a uniform table: columns c0..c4 in
// [0, 100], aggregate column "val" in [0, 1000].
inline std::unique_ptr<SyntheticTask> MakeSyntheticTask(
    const SyntheticOptions& options) {
  auto out = std::make_unique<SyntheticTask>();
  std::vector<Field> fields;
  for (size_t i = 0; i < 5; ++i) {
    fields.push_back({"c" + std::to_string(i), DataType::kDouble, ""});
  }
  fields.push_back({"val", DataType::kDouble, ""});
  auto table = std::make_shared<Table>("data", Schema(std::move(fields)));
  Rng rng(options.seed);
  table->ReserveRows(options.rows);
  for (size_t r = 0; r < options.rows; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      table->mutable_column(c).AppendDouble(rng.NextDouble(0.0, 100.0));
    }
    table->mutable_column(5).AppendDouble(rng.NextDouble(0.0, 1000.0));
  }
  if (!table->FinalizeAppend().ok()) return nullptr;
  if (!out->catalog.AddTable(table).ok()) return nullptr;

  QuerySpec spec;
  spec.tables = {"data"};
  for (size_t i = 0; i < options.d; ++i) {
    spec.predicates.push_back(SelectPredicateSpec{
        "c" + std::to_string(i), CompareOp::kLe, options.bound, true, 1.0,
        {}});
  }
  spec.agg_kind = options.agg;
  if (options.agg != AggregateKind::kCount) spec.agg_column = "val";
  spec.constraint_op = options.op;
  spec.target = options.target;
  auto task = PlanAcqTask(out->catalog, spec);
  if (!task.ok()) return nullptr;
  out->task = std::move(task).value();
  return out;
}

}  // namespace test_util
}  // namespace acquire

#endif  // ACQUIRE_TESTS_TEST_UTIL_H_
