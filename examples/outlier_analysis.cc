// The paper's third motivating use case: aggregate-outlier analysis. An
// analyst wants a patient cohort whose AVERAGE annual cost is at least a
// threshold — AVG decomposes into SUM/COUNT (Section 2.6), so ACQUIRE can
// refine the cohort's selection predicates directly.
//
// This example also demonstrates contraction (Section 7.2): a second query
// returns too MANY patients, and ACQUIRE tightens it instead.
//
// Run:  ./build/examples/outlier_analysis

#include <cstdio>

#include "core/acquire.h"
#include "core/contract.h"
#include "exec/parallel_evaluation.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "workload/users_gen.h"

using namespace acquire;  // NOLINT — brevity in example code

int main() {
  Catalog catalog;
  PatientsOptions options;
  options.patients = 100000;
  if (Status s = GeneratePatients(options, &catalog); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Binder binder(&catalog);

  // --- Part 1: expand until AVG(annual_cost) >= 15000. ---
  auto task = binder.PlanSql(
      "SELECT * FROM patients "
      "CONSTRAINT AVG(annual_cost) >= 15000 "
      "WHERE age >= 55 AND systolic_bp >= 135 AND weekly_exercise_hours <= 3");
  if (!task.ok()) {
    fprintf(stderr, "planning failed: %s\n", task.status().ToString().c_str());
    return 1;
  }
  printf("Outlier cohort ACQ:\n%s\n\n", RenderOriginalSql(*task).c_str());

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  auto result = RunAcquire(*task, &layer, {});
  if (!result.ok()) {
    fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  if (result->satisfied) {
    const RefinedQuery& q = result->queries.front();
    printf("Cohort found: AVG cost = %.0f, refinement = %.2f\n%s\n\n",
           q.aggregate, q.qscore, RenderRefinedSql(*task, q).c_str());
  } else {
    printf("Threshold unreachable; closest %s\n\n",
           result->best.ToString().c_str());
  }

  // --- Part 2: the inverse problem. A loose screening query matches far
  // too many patients; contract it to a review-capacity budget of 5000.
  auto wide = binder.PlanSql(
      "SELECT * FROM patients "
      "CONSTRAINT COUNT(*) = 5000 "
      "WHERE age >= 30 AND systolic_bp >= 110");
  if (!wide.ok()) {
    fprintf(stderr, "planning failed: %s\n", wide.status().ToString().c_str());
    return 1;
  }
  ParallelEvaluationLayer wide_layer(&*wide, /*pool=*/nullptr);
  double matched =
      wide_layer.EvaluateQueryValue(std::vector<double>(wide->d(), 0.0))
          .value_or(0.0);
  printf("Screening query matches %.0f patients; capacity is 5000.\n",
         matched);

  auto contract_task = MakeContractionTask(*wide);
  if (!contract_task.ok()) {
    fprintf(stderr, "%s\n", contract_task.status().ToString().c_str());
    return 1;
  }
  ParallelEvaluationLayer contract_layer(&*contract_task, /*pool=*/nullptr);
  AcquireOptions copts;
  copts.gamma = 16.0;
  copts.delta = 0.05;
  auto contracted = RunAcquireContract(*contract_task, &contract_layer, copts);
  if (!contracted.ok()) {
    fprintf(stderr, "%s\n", contracted.status().ToString().c_str());
    return 1;
  }
  if (contracted->satisfied) {
    const RefinedQuery& q = contracted->queries.front();
    printf("Minimal contraction found: COUNT = %.0f, contraction = %.2f\n"
           "%s\n", q.aggregate, q.qscore,
           RenderRefinedSql(*contract_task, q).c_str());
  } else {
    printf("No contraction met the capacity; closest %s\n",
           contracted->best.ToString().c_str());
  }
  return 0;
}
