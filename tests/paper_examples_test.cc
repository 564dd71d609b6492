// Integration tests mirroring the paper's running examples: the Facebook ad
// campaign (Example 1 / query Q1') and the HybridCars supply chain
// (Example 2 / query Q2'), driven through the full SQL surface.

#include <gtest/gtest.h>

#include "core/acquire.h"
#include "exec/parallel_evaluation.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "workload/tpch_gen.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions tpch;
    tpch.suppliers = 500;
    tpch.parts = 1000;
    tpch.suppliers_per_part = 4;
    ASSERT_TRUE(GenerateTpch(tpch, &catalog_).ok());
    UsersOptions users;
    users.users = 50000;
    ASSERT_TRUE(GenerateUsers(users, &catalog_).ok());
  }

  Catalog catalog_;
};

TEST_F(PaperExamplesTest, Q1AdCampaignCountConstraint) {
  // Q1': demographics fixed, numeric predicates refinable, COUNT target
  // beyond the original query's audience.
  Binder binder(&catalog_);
  auto task = binder.PlanSql(R"sql(
      SELECT * FROM users
      CONSTRAINT COUNT(*) = 4K
      WHERE (gender = 'Women') NOREFINE
      AND 25 <= age <= 35
      AND engagement >= 60
      AND (interest IN ('Retail', 'Shopping')) NOREFINE;)sql");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 3u);  // range splits into two dims + engagement

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  AcquireOptions options;
  options.delta = 0.05;
  auto result = RunAcquire(*task, &layer, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->satisfied);
  EXPECT_NEAR(result->queries[0].aggregate, 4000.0, 200.0);

  // The recommended refined query is plain runnable SQL that keeps the
  // NOREFINE demographics fixed.
  std::string sql = RenderRefinedSql(*task, result->queries[0]);
  EXPECT_NE(sql.find("gender = 'Women'"), std::string::npos);
  EXPECT_NE(sql.find("interest IN ('Retail', 'Shopping')"),
            std::string::npos);
}

TEST_F(PaperExamplesTest, Q2SupplyChainSumConstraint) {
  // Q2' verbatim in structure: three-way join, SUM(ps_availqty) >= 0.1M,
  // join and part-spec predicates NOREFINE, price and balance refinable.
  Binder binder(&catalog_);
  auto task = binder.PlanSql(R"sql(
      SELECT * FROM supplier, part, partsupp
      CONSTRAINT SUM(ps_availqty) >= 0.1M
      WHERE (s_suppkey = ps_suppkey) NOREFINE AND
      (p_partkey = ps_partkey) NOREFINE AND
      (p_retailprice < 1000) AND (s_acctbal < 2000)
      AND (p_size <= 10) NOREFINE;)sql");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 2u);

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  AcquireOptions options;
  options.delta = 0.05;
  auto result = RunAcquire(*task, &layer, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->satisfied) << "best " << result->best.ToString();
  for (const RefinedQuery& q : result->queries) {
    EXPECT_GE(q.aggregate, 0.1e6 * (1.0 - options.delta));
  }
}

TEST_F(PaperExamplesTest, Q3JoinRefinementFromSection24) {
  // Q3: SELECT * FROM A, B WHERE A.x = B.x AND B.y < 50 — the join is
  // refinable by default and the algorithm treats it like any dimension.
  Catalog catalog;
  auto a = std::make_shared<Table>("A", Schema({{"x", DataType::kDouble, ""}}));
  auto b = std::make_shared<Table>(
      "B", Schema({{"x", DataType::kDouble, ""}, {"y", DataType::kDouble, ""}}));
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(a->AppendRow({Value(i * 1.0)}).ok());
    ASSERT_TRUE(b->AppendRow({Value(i * 1.0 + 0.4), Value(i * 2.0)}).ok());
  }
  ASSERT_TRUE(catalog.AddTable(a).ok());
  ASSERT_TRUE(catalog.AddTable(b).ok());

  Binder binder(&catalog);
  auto task = binder.PlanSql(
      "SELECT * FROM A, B CONSTRAINT COUNT(*) = 25 "
      "WHERE A.x = B.x AND B.y < 50");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 2u);

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  AcquireOptions options;
  options.delta = 0.05;
  auto result = RunAcquire(*task, &layer, options);
  ASSERT_TRUE(result.ok());
  // Exact equi-join matches nothing (keys offset by 0.4): only widening the
  // join band can admit pairs, proving join refinement works end to end.
  ASSERT_TRUE(result->satisfied) << result->best.ToString();
  EXPECT_NE(result->queries[0].description.find("ABS("), std::string::npos);
}

TEST_F(PaperExamplesTest, AvgOutlierAnalysisUseCase) {
  // Third motivating use case: constrain AVG over patient costs.
  Catalog catalog;
  PatientsOptions options;
  options.patients = 20000;
  ASSERT_TRUE(GeneratePatients(options, &catalog).ok());

  Binder binder(&catalog);
  auto task = binder.PlanSql(
      "SELECT * FROM patients CONSTRAINT AVG(annual_cost) >= 14000 "
      "WHERE age >= 60 AND systolic_bp >= 140");
  ASSERT_TRUE(task.ok()) << task.status().ToString();

  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  auto result = RunAcquire(*task, &layer, {});
  ASSERT_TRUE(result.ok());
  // Either the original already exceeds the AVG floor or a refinement does.
  ASSERT_TRUE(result->satisfied);
  EXPECT_GE(result->queries[0].aggregate, 14000.0 * 0.95);
}

}  // namespace
}  // namespace acquire
