// Tests for Section 2.2's general predicate functions: arithmetic select
// predicates (ExprDim), the ExprBandJoin executor, and non-equi joins
// (Section 2.4) driven end-to-end through SQL.

#include <gtest/gtest.h>
#include <cmath>

#include "core/acquire.h"
#include "exec/join.h"
#include "exec/parallel_evaluation.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/tpch_gen.h"

namespace acquire {
namespace {

TablePtr TwoColumnTable(const std::string& name,
                        std::vector<std::pair<double, double>> rows) {
  auto t = std::make_shared<Table>(
      name, Schema({{"x", DataType::kDouble, ""},
                    {"y", DataType::kDouble, ""}}));
  for (auto [x, y] : rows) {
    EXPECT_TRUE(t->AppendRow({Value(x), Value(y)}).ok());
  }
  return t;
}

ExprPtr TimesTwoXPlusY() {
  return Expr::Arith(
      ArithOp::kAdd,
      Expr::Arith(ArithOp::kMul, Expr::Literal(Value(2.0)), Expr::Column("x")),
      Expr::Column("y"));
}

TEST(ExprDimTest, NeededPScoreOverArithmeticFunction) {
  // f = 2x + y; predicate f <= 10 over f-domain [0, 40]; width = 10.
  auto t = TwoColumnTable("t", {{1, 2}, {4, 2}, {10, 20}});  // f: 4, 10, 40
  ExprDim dim(TimesTwoXPlusY(), /*is_upper=*/true, 10.0, /*strict=*/false,
              0.0, 40.0);
  ASSERT_TRUE(dim.Bind(t->schema()).ok());
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*t, 0), 0.0);
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*t, 1), 0.0);    // on the bound
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*t, 2), 300.0);  // (40-10)/10*100
  EXPECT_DOUBLE_EQ(dim.MaxPScore(), 300.0);
}

TEST(ExprDimTest, JoinSemanticsDenominator) {
  // Join semantics: denominator 100 -> PScore equals value-unit violation.
  auto t = TwoColumnTable("t", {{6, 2}});  // f = 14
  ExprDim dim(TimesTwoXPlusY(), true, 10.0, false, 0.0, 40.0,
              /*pscore_denominator=*/100.0);
  ASSERT_TRUE(dim.Bind(t->schema()).ok());
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*t, 0), 4.0);  // 14 - 10
  EXPECT_DOUBLE_EQ(dim.MaxPScore(), 30.0);         // domain slack 40-10
}

TEST(ExprDimTest, DescribeAndRefinedBound) {
  ExprDim dim(TimesTwoXPlusY(), true, 10.0, true, 0.0, 40.0);
  EXPECT_EQ(dim.label(), "((2 * x) + y) < 10");
  EXPECT_DOUBLE_EQ(dim.RefinedBound(100.0), 20.0);  // +100% of width 10
  EXPECT_EQ(dim.DescribeAt(100.0), "((2 * x) + y) <= 20");
}

TEST(ExprDimTest, EvaluationFailureIsUnreachable) {
  // Division by zero on some rows: those tuples can never be admitted.
  auto t = TwoColumnTable("t", {{1, 0}, {1, 2}});
  ExprPtr f = Expr::Arith(ArithOp::kDiv, Expr::Column("x"), Expr::Column("y"));
  ExprDim dim(f, true, 1.0, false, 0.0, 10.0);
  ASSERT_TRUE(dim.Bind(t->schema()).ok());
  EXPECT_TRUE(std::isinf(dim.NeededPScore(*t, 0)));
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*t, 1), 0.0);  // 1/2 <= 1
}

TEST(ExprBandJoinTest, MatchesBruteForce) {
  auto left = TwoColumnTable("l", {{1, 1}, {2, 5}, {3, 0}});
  auto right = TwoColumnTable("r", {{2, 0}, {4, 1}, {1, 9}});
  // delta = 2*l.x - 3*r.x in [-2, 2].
  ExprPtr lf = Expr::Arith(ArithOp::kMul, Expr::Literal(Value(2.0)),
                           Expr::Column("x"));
  ExprPtr rf = Expr::Arith(ArithOp::kMul, Expr::Literal(Value(3.0)),
                           Expr::Column("x"));
  auto joined = ExprBandJoin(left, right, lf, rf, -2.0, 2.0, "j");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  size_t expected = 0;
  for (double lx : {1.0, 2.0, 3.0}) {
    for (double rx : {2.0, 4.0, 1.0}) {
      double delta = 2 * lx - 3 * rx;
      if (delta >= -2.0 && delta <= 2.0) ++expected;
    }
  }
  EXPECT_EQ((*joined)->num_rows(), expected);
}

TEST(ExprBandJoinTest, OneSidedTheta) {
  auto left = TwoColumnTable("l", {{1, 0}, {5, 0}});
  auto right = TwoColumnTable("r", {{2, 0}, {6, 0}});
  // l.x < r.x: delta = l.x - r.x in (-inf, 0].
  auto joined = ExprBandJoin(
      left, right, Expr::Column("x"), Expr::Column("x"),
      -std::numeric_limits<double>::infinity(), 0.0, "j");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ((*joined)->num_rows(), 3u);  // (1,2) (1,6) (5,6)
}

TEST(ExprBandJoinTest, ValidationErrors) {
  auto left = TwoColumnTable("l", {{1, 0}});
  auto right = TwoColumnTable("r", {{1, 0}});
  EXPECT_FALSE(
      ExprBandJoin(left, right, nullptr, Expr::Column("x"), 0, 1, "j").ok());
  EXPECT_FALSE(ExprBandJoin(left, right, Expr::Column("x"),
                            Expr::Column("x"), 2.0, 1.0, "j")
                   .ok());
  EXPECT_FALSE(ExprBandJoin(left, right, Expr::Column("nope"),
                            Expr::Column("x"), 0.0, 1.0, "j")
                   .ok());
}

TEST(ParserArithTest, ArithmeticOperandsAndPrecedence) {
  auto q = ParseAcqSql("SELECT * FROM t WHERE a + b * 2 < 10");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->predicates.size(), 1u);
  const AstOperand& lhs = q->predicates[0].lhs;
  ASSERT_TRUE(lhs.is_expr());
  EXPECT_EQ(lhs.expr->ToString(), "(a + (b * 2))");
  EXPECT_EQ(lhs.columns, (std::vector<std::string>{"a", "b"}));
}

TEST(ParserArithTest, UnaryMinusAndParens) {
  auto q = ParseAcqSql("SELECT * FROM t WHERE (a - b) / 2 >= -1.5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AstPredicate& pred = q->predicates[0];
  ASSERT_TRUE(pred.lhs.is_expr());
  EXPECT_EQ(pred.lhs.expr->ToString(), "((a - b) / 2)");
  ASSERT_TRUE(pred.rhs.is_literal());
  EXPECT_DOUBLE_EQ(pred.rhs.literal.number, -1.5);
}

TEST(ParserArithTest, ParenthesizedOperandAtPredicateStart) {
  auto q = ParseAcqSql("SELECT * FROM t WHERE (2 * a) < b");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->predicates[0].lhs.is_expr());
  EXPECT_TRUE(q->predicates[0].rhs.is_column());
}

class NonEquiJoinSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = std::make_shared<Table>("A",
                                     Schema({{"x", DataType::kDouble, ""}}));
    auto b = std::make_shared<Table>("B",
                                     Schema({{"x", DataType::kDouble, ""}}));
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(a->AppendRow({Value(i * 1.0)}).ok());
      ASSERT_TRUE(b->AppendRow({Value(i * 1.0)}).ok());
    }
    ASSERT_TRUE(catalog_.AddTable(a).ok());
    ASSERT_TRUE(catalog_.AddTable(b).ok());
  }
  Catalog catalog_;
};

TEST_F(NonEquiJoinSqlTest, RefinableNonEquiJoinEndToEnd) {
  // 2*A.x < 3*B.x refines by widening the delta band upward.
  Binder binder(&catalog_);
  auto task = binder.PlanSql(
      "SELECT * FROM A, B CONSTRAINT COUNT(*) = 1800 "
      "WHERE 2 * A.x < 3 * B.x");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 1u);

  // Base pair count: #{(a,b) : 2a < 3b} over 50x50.
  size_t base = 0;
  for (int ax = 1; ax <= 50; ++ax) {
    for (int bx = 1; bx <= 50; ++bx) {
      if (2 * ax < 3 * bx) ++base;
    }
  }
  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  double origin = layer.EvaluateQueryValue({0.0}).value();
  EXPECT_DOUBLE_EQ(origin, static_cast<double>(base));

  AcquireOptions options;
  options.delta = 0.02;
  auto result = RunAcquire(*task, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied) << result->best.ToString();
  EXPECT_NEAR(result->queries[0].aggregate, 1800.0, 1800.0 * 0.02 + 1e-9);
  EXPECT_NE(result->queries[0].description.find("<="), std::string::npos);
}

TEST_F(NonEquiJoinSqlTest, NorefineNonEquiJoinIsExact) {
  Binder binder(&catalog_);
  auto task = binder.PlanSql(
      "SELECT * FROM A, B CONSTRAINT COUNT(*) = 100 "
      "WHERE (2 * A.x < 3 * B.x) NOREFINE AND A.x <= 10");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 1u);  // only A.x is refinable
  size_t expected = 0;
  for (int ax = 1; ax <= 50; ++ax) {
    for (int bx = 1; bx <= 50; ++bx) {
      if (2 * ax < 3 * bx) ++expected;
    }
  }
  EXPECT_EQ(task->relation->num_rows(), expected);
}

TEST_F(NonEquiJoinSqlTest, ArithmeticSelectPredicateViaSql) {
  Catalog catalog;
  TpchOptions options;
  options.lineitems = 5000;
  ASSERT_TRUE(GenerateTpch(options, &catalog).ok());
  Binder binder(&catalog);
  auto task = binder.PlanSql(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) = 1000 "
      "WHERE l_quantity * l_extendedprice < 100000");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 1u);
  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  auto result = RunAcquire(*task, &layer, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
}

TEST_F(NonEquiJoinSqlTest, SameTableFunctionComparisonRefines) {
  Catalog catalog;
  TpchOptions options;
  options.lineitems = 5000;
  ASSERT_TRUE(GenerateTpch(options, &catalog).ok());
  Binder binder(&catalog);
  // l_quantity < l_discount * 300: same-table function comparison becomes
  // the refinable predicate (l_quantity - l_discount*300) < 0.
  auto task = binder.PlanSql(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) = 2000 "
      "WHERE l_quantity < l_discount * 300");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 1u);
  ParallelEvaluationLayer layer(&*task, /*pool=*/nullptr);
  auto result = RunAcquire(*task, &layer, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
}

}  // namespace
}  // namespace acquire
