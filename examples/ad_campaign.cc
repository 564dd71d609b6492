// Example 1 from the paper: HighStyle Designers' Facebook ad campaign.
// The campaign budget covers 1M impressions per 10K dollars; here the
// synthetic audience is smaller, so the target is scaled accordingly. The
// demographics query (gender, interests) stays fixed while age, engagement
// and income bounds may be refined. An ontology over cities lets the
// location list relax to nearby regions (Section 7.3).
//
// Run:  ./build/examples/ad_campaign

#include <cstdio>

#include "core/acquire.h"
#include "exec/parallel_evaluation.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "workload/users_gen.h"

using namespace acquire;  // NOLINT — brevity in example code

namespace {

// City taxonomy: country -> region -> city (Figure 7a's location tree).
Result<OntologyTree> CityTree() {
  OntologyTree tree;
  struct Edge {
    const char* node;
    const char* parent;
  };
  const Edge edges[] = {
      {"UnitedStates", ""},
      {"EastCoast", "UnitedStates"},  {"WestCoast", "UnitedStates"},
      {"South", "UnitedStates"},      {"Midwest", "UnitedStates"},
      {"Mountain", "UnitedStates"},
      {"Boston", "EastCoast"},        {"New York", "EastCoast"},
      {"Atlanta", "South"},           {"Miami", "South"},
      {"Austin", "South"},            {"Seattle", "WestCoast"},
      {"Portland", "WestCoast"},      {"Chicago", "Midwest"},
      {"Denver", "Mountain"},         {"Phoenix", "Mountain"},
  };
  for (const Edge& e : edges) {
    ACQ_RETURN_IF_ERROR(tree.AddNode(e.node, e.parent));
  }
  return tree;
}

}  // namespace

int main() {
  Catalog catalog;
  UsersOptions users;
  users.users = 200000;
  if (Status s = GenerateUsers(users, &catalog); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto tree = CityTree();
  if (!tree.ok()) {
    fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }

  Binder binder(&catalog);
  binder.RegisterOntology("city", &*tree);

  // Q1' — Alice's campaign: the audience estimate for the original query is
  // far below the 12K users the budget covers.
  const char* sql =
      "SELECT * FROM users "
      "CONSTRAINT COUNT(*) = 8K "
      "WHERE city IN ('Boston', 'New York', 'Seattle', 'Miami', 'Austin') "
      "AND (gender = 'Women') NOREFINE "
      "AND 25 <= age <= 35 "
      "AND (interest IN ('Retail', 'Shopping')) NOREFINE "
      "AND engagement >= 55";

  auto task = binder.PlanSql(sql);
  if (!task.ok()) {
    fprintf(stderr, "planning failed: %s\n", task.status().ToString().c_str());
    return 1;
  }
  printf("Campaign ACQ:\n%s\n\n", RenderOriginalSql(*task).c_str());

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  double audience =
      layer.EvaluateQueryValue(std::vector<double>(task->d(), 0.0))
          .value_or(0.0);
  printf("Estimated audience of the original query: %.0f users "
         "(budget covers 8000)\n\n", audience);

  AcquireOptions options;
  options.delta = 0.05;
  // One city roll-up costs 50 PScore units (tree height 2), so a coarser
  // grid keeps the 4-dimensional search snappy.
  options.gamma = 20.0;
  auto result = RunAcquire(*task, &layer, options);
  if (!result.ok()) {
    fprintf(stderr, "ACQUIRE failed: %s\n",
            result.status().ToString().c_str());
    return 1;
  }
  if (!result->satisfied) {
    printf("Budget target unreachable; closest alternative:\n  %s\n",
           result->best.ToString().c_str());
    return 0;
  }
  printf("Alternatives reaching the budgeted audience (%.1f ms, %llu "
         "refined queries examined):\n\n", result->elapsed_ms,
         static_cast<unsigned long long>(result->queries_explored));
  size_t shown = 0;
  for (const RefinedQuery& q : result->queries) {
    printf("  audience=%.0f  refinement=%.2f\n  %s\n\n", q.aggregate,
           q.qscore, RenderRefinedSql(*task, q).c_str());
    if (++shown == 3) break;
  }
  return 0;
}
