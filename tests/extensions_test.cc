// Tests for the library extensions: custom monotone refinement metrics
// (Section 2.3's user-defined metric hook), the parallel evaluation layer,
// and catalog persistence.

#include <gtest/gtest.h>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/acquire.h"
#include "expr/custom_metric_dim.h"
#include "exec/parallel_evaluation.h"
#include "storage/persistence.h"
#include "test_util.h"
#include "workload/tpch_gen.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

RefinementDimPtr MakeNumeric() {
  // x <= 50 over [0, 100]: width 50, MaxPScore 100.
  return std::make_unique<NumericDim>("c0", true, 50.0, false, 0.0, 100.0);
}

TEST(CustomMetricDimTest, MetricTransformsNeededPScores) {
  SyntheticOptions options;
  options.d = 1;
  options.bound = 50.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const Table& rel = *fixture->task.relation;

  auto inner = MakeNumeric();
  ASSERT_TRUE(inner->Bind(rel.schema()).ok());
  const RefinementDim* inner_raw = inner.get();
  CustomMetricDim quadratic(std::move(inner),
                            [](double p) { return p * p; }, "squared");
  ASSERT_TRUE(quadratic.Bind(rel.schema()).ok());
  for (size_t row = 0; row < 50; ++row) {
    double base = inner_raw->NeededPScore(rel, row);
    EXPECT_DOUBLE_EQ(quadratic.NeededPScore(rel, row), base * base);
  }
  EXPECT_DOUBLE_EQ(quadratic.MaxPScore(), 100.0 * 100.0);
}

TEST(CustomMetricDimTest, InverseMetricRoundTrips) {
  CustomMetricDim dim(MakeNumeric(), [](double p) { return p * p; });
  for (double p : {0.0, 1.0, 7.5, 50.0, 99.0}) {
    EXPECT_NEAR(dim.InverseMetric(p * p), p, 1e-6);
  }
  // DescribeAt renders using the inner scale: metric 400 == inner 20.
  EXPECT_EQ(dim.DescribeAt(400.0), MakeNumeric()->DescribeAt(20.0));
  EXPECT_EQ(dim.label(), "c0 <= 50");
}

TEST(CustomMetricDimTest, AcquireRunsOnCustomMetric) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 2000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  double base = probe.EvaluateQueryValue({0.0, 0.0}).value();
  fixture->task.constraint.target = base * 1.8;

  // Wrap dim 0 in a steep metric: refining it becomes "expensive", so the
  // search should prefer dim 1.
  fixture->task.dims[0] = std::make_unique<CustomMetricDim>(
      std::move(fixture->task.dims[0]), [](double p) { return 5.0 * p; });
  ParallelEvaluationLayer layer(&fixture->task, /*pool=*/nullptr);
  AcquireOptions acq;
  acq.order = SearchOrder::kBestFirst;
  auto result = RunAcquire(fixture->task, &layer, acq);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->satisfied);
  const RefinedQuery& q = result->queries[0];
  // pscores are on the custom scale for dim 0; dim 1 should carry most of
  // the refinement.
  EXPECT_GE(q.pscores[1], q.pscores[0] / 5.0 - 1e-9);
}

TEST(ParallelLayerTest, MatchesDirectLayerExactly) {
  SyntheticOptions options;
  options.d = 3;
  options.rows = 30000;
  options.agg = AggregateKind::kSum;
  options.target = 10.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer direct(&fixture->task);
  ThreadPool pool(4);
  ParallelEvaluationLayer parallel(&fixture->task, &pool);
  ASSERT_TRUE(parallel.Prepare().ok());
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> pscores(3);
    for (auto& p : pscores) p = rng.NextDouble(0.0, 80.0);
    double a = direct.EvaluateQueryValue(pscores).value();
    double b = parallel.EvaluateQueryValue(pscores).value();
    EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::fabs(a)));
  }
}

TEST(ParallelLayerTest, SmallInputsFallBackToSingleThread) {
  SyntheticOptions options;
  options.d = 1;
  options.rows = 100;  // under the per-worker chunk threshold
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  ThreadPool pool(8);
  ParallelEvaluationLayer layer(&fixture->task, &pool);
  auto v = layer.EvaluateQueryValue({10.0});
  ASSERT_TRUE(v.ok());
  DirectEvaluationLayer direct(&fixture->task);
  EXPECT_DOUBLE_EQ(*v, direct.EvaluateQueryValue({10.0}).value());
}

TEST(ParallelLayerTest, DriverRunsOnParallelLayer) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  fixture->task.constraint.target =
      probe.EvaluateQueryValue({0.0, 0.0}).value() * 2.0;
  ParallelEvaluationLayer layer(&fixture->task, &ThreadPool::Shared());
  auto result = RunAcquire(fixture->task, &layer, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/acq_db_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(PersistenceTest, SchemaSpecRoundTrip) {
  Schema schema({{"id", DataType::kInt64, ""},
                 {"price", DataType::kDouble, ""},
                 {"name", DataType::kString, ""}});
  std::string spec = SchemaToSpec(schema);
  EXPECT_EQ(spec, "id:int64,price:double,name:string");
  auto back = SchemaFromSpec(spec);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_fields(), 3u);
  EXPECT_EQ(back->field(1).type, DataType::kDouble);
  EXPECT_FALSE(SchemaFromSpec("broken").ok());
  EXPECT_FALSE(SchemaFromSpec("x:unknown_type").ok());
  EXPECT_FALSE(SchemaFromSpec("").ok());
}

TEST_F(PersistenceTest, CatalogRoundTrips) {
  Catalog original;
  TpchOptions options;
  options.suppliers = 30;
  options.parts = 40;
  options.lineitems = 200;
  ASSERT_TRUE(GenerateTpch(options, &original).ok());
  ASSERT_TRUE(SaveCatalog(original, dir_).ok());

  Catalog loaded;
  ASSERT_TRUE(LoadCatalog(dir_, &loaded).ok());
  EXPECT_EQ(loaded.TableNames(), original.TableNames());
  for (const std::string& name : original.TableNames()) {
    TablePtr a = original.GetTable(name).value();
    TablePtr b = loaded.GetTable(name).value();
    ASSERT_EQ(a->num_rows(), b->num_rows()) << name;
    ASSERT_EQ(a->num_columns(), b->num_columns()) << name;
    for (size_t r = 0; r < std::min<size_t>(a->num_rows(), 25); ++r) {
      for (size_t c = 0; c < a->num_columns(); ++c) {
        EXPECT_EQ(a->Get(r, c), b->Get(r, c)) << name << " " << r << "," << c;
      }
    }
  }
}

TEST_F(PersistenceTest, LoadFromMissingDirectoryFails) {
  Catalog catalog;
  EXPECT_EQ(LoadCatalog(dir_ + "_nope", &catalog).code(),
            StatusCode::kIOError);
  EXPECT_FALSE(LoadCatalog(dir_, nullptr).ok());
}

}  // namespace
}  // namespace acquire
