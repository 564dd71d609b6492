// Section 8.3's final evaluation axis: "performance of ACQUIRE under ...
// presence of join refinement". None of the compared techniques can refine
// join predicates (Section 8.2), so this bench characterizes ACQUIRE
// alone: an equi-join that must widen into a band join to meet a COUNT
// target, alongside a refinable select predicate, at several targets.

#include <cstdio>

#include "bench_util.h"
#include "exec/planner.h"

namespace acquire {
namespace bench {
namespace {

void Run() {
  const size_t rows = EnvRows(50000);
  printf("Join refinement (supplier x partsupp band join, rows=%zu)\n\n",
         rows);
  Catalog catalog = MakeLineitemCatalog(rows);

  TablePrinter table({"target_factor", "ACQUIRE_ms", "explored",
                      "join_band", "select_pscore", "err", "satisfied"});
  for (double factor : {1.5, 2.0, 3.0}) {
    QuerySpec spec;
    spec.tables = {"supplier", "partsupp"};
    spec.joins.push_back(JoinClauseSpec{"s_suppkey", "ps_suppkey",
                                        /*refinable=*/true, /*band_cap=*/6.0,
                                        1.0});
    spec.predicates.push_back(SelectPredicateSpec{
        "s_acctbal", CompareOp::kLt, 3000.0, true, 1.0, {}});
    spec.agg_kind = AggregateKind::kCount;
    spec.constraint_op = ConstraintOp::kEq;
    spec.target = 1.0;
    auto task = PlanAcqTask(catalog, spec);
    ACQ_CHECK(task.ok()) << task.status().ToString();

    DirectEvaluationLayer probe(&*task);
    double base = probe.EvaluateQueryValue({0.0, 0.0}).value_or(0.0);
    task->constraint.target = base * factor;

    AcquireOptions options;
    options.delta = 0.05;
    Stopwatch sw;
    RefinedSpace space(&*task, options.gamma, options.norm);
    CellSortedEvaluationLayer layer(&*task, space.step());
    Status prep = layer.Prepare();
    ACQ_CHECK(prep.ok()) << prep.ToString();
    auto result = RunAcquire(*task, &layer, options);
    ACQ_CHECK(result.ok()) << result.status().ToString();
    const RefinedQuery& answer = result->queries.empty()
                                     ? result->best
                                     : result->queries.front();
    table.AddRow({StringFormat("%.1f", factor), Ms(sw.ElapsedMillis()),
                  std::to_string(result->queries_explored),
                  Score(answer.pscores.empty() ? 0.0 : answer.pscores[0]),
                  Score(answer.pscores.size() > 1 ? answer.pscores[1] : 0.0),
                  Err(answer.error), result->satisfied ? "yes" : "no"});
  }
  table.Print();
  printf("\njoin_band is the widened |s_suppkey - ps_suppkey| tolerance "
         "(PScore == value units for joins, Section 2.4).\n");
}

}  // namespace
}  // namespace bench
}  // namespace acquire

int main() {
  acquire::bench::Run();
  return 0;
}
