#include "storage/table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/catalog.h"

namespace acquire {
namespace {

Schema SimpleSchema() {
  return Schema({{"id", DataType::kInt64, ""},
                 {"price", DataType::kDouble, ""},
                 {"name", DataType::kString, ""}});
}

TEST(ColumnTest, AppendAndGet) {
  Column c(DataType::kInt64);
  ASSERT_TRUE(c.Append(Value(int64_t{5})).ok());
  ASSERT_TRUE(c.Append(Value(int64_t{7})).ok());
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Get(1), Value(int64_t{7}));
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 5.0);
}

TEST(ColumnTest, TypeMismatchRejected) {
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.Append(Value("x")).IsTypeError());
  EXPECT_TRUE(c.Append(Value(1.5)).IsTypeError());
  Column s(DataType::kString);
  EXPECT_TRUE(s.Append(Value(int64_t{1})).IsTypeError());
}

TEST(ColumnTest, Int64WidensIntoDoubleColumn) {
  Column c(DataType::kDouble);
  ASSERT_TRUE(c.Append(Value(int64_t{3})).ok());
  EXPECT_DOUBLE_EQ(c.double_data()[0], 3.0);
}

TEST(ColumnTest, StatsComputeMinMax) {
  Column c(DataType::kDouble);
  c.AppendDouble(5.0);
  c.AppendDouble(-2.0);
  c.AppendDouble(9.0);
  ColumnStats stats = c.ComputeStats();
  ASSERT_TRUE(stats.valid);
  EXPECT_DOUBLE_EQ(stats.min, -2.0);
  EXPECT_DOUBLE_EQ(stats.max, 9.0);
}

TEST(ColumnTest, StatsInvalidForStringOrEmpty) {
  Column s(DataType::kString);
  s.AppendString("x");
  EXPECT_FALSE(s.ComputeStats().valid);
  Column e(DataType::kInt64);
  EXPECT_FALSE(e.ComputeStats().valid);
}

TEST(TableTest, SchemaStampedWithTableName) {
  Table t("orders", SimpleSchema());
  EXPECT_EQ(t.schema().field(0).table, "orders");
  EXPECT_EQ(t.schema().field(0).QualifiedName(), "orders.id");
}

TEST(TableTest, AppendRowValidatesArityAndTypes) {
  Table t("orders", SimpleSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(9.5), Value("ok")}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("bad"), Value(9.5), Value("x")}).IsTypeError());
}

TEST(TableTest, GetRowMaterializesValues) {
  Table t("orders", SimpleSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(2.0), Value("a")}).ok());
  std::vector<Value> row = t.GetRow(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[2], Value("a"));
}

TEST(TableTest, StatsAreCachedAndInvalidated) {
  Table t("orders", SimpleSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(2.0), Value("a")}).ok());
  EXPECT_DOUBLE_EQ(t.Stats(1).max, 2.0);
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value(8.0), Value("b")}).ok());
  EXPECT_DOUBLE_EQ(t.Stats(1).max, 8.0);
}

// Concurrent planners share a table under a read lock, so the first
// Stats() calls on a fresh table race to fill the cache. Every caller must
// see the finished stats (run under the tsan and asan presets).
TEST(TableTest, ConcurrentStatsCallsOnFreshTableAgree) {
  Table t("orders", SimpleSchema());
  for (int64_t i = 0; i < 20000; ++i) {
    t.mutable_column(0).AppendInt64(i);
    t.mutable_column(1).AppendDouble(static_cast<double>(i % 997) - 3.5);
    t.mutable_column(2).AppendString("x");
  }
  ASSERT_TRUE(t.FinalizeAppend().ok());

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<ColumnStats> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[i] = t.Stats(i % 2);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(seen[i].valid) << i;
    if (i % 2 == 0) {
      EXPECT_EQ(seen[i].min, 0.0);
      EXPECT_EQ(seen[i].max, 19999.0);
    } else {
      EXPECT_EQ(seen[i].min, -3.5);
      EXPECT_EQ(seen[i].max, 992.5);
    }
  }
}

TEST(TableTest, FinalizeAppendSyncsRowCount) {
  Table t("orders", SimpleSchema());
  t.mutable_column(0).AppendInt64(1);
  t.mutable_column(1).AppendDouble(1.0);
  t.mutable_column(2).AppendString("x");
  ASSERT_TRUE(t.FinalizeAppend().ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, FinalizeAppendDetectsRaggedColumns) {
  Table t("orders", SimpleSchema());
  t.mutable_column(0).AppendInt64(1);
  EXPECT_FALSE(t.FinalizeAppend().ok());
}

TEST(TableTest, ToStringTruncates) {
  Table t("orders", SimpleSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(int64_t{i}), Value(1.0 * i), Value("r")}).ok());
  }
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("..."), std::string::npos);
}

TEST(CatalogTest, AddGetDrop) {
  Catalog catalog;
  auto t = std::make_shared<Table>("t1", SimpleSchema());
  ASSERT_TRUE(catalog.AddTable(t).ok());
  EXPECT_TRUE(catalog.HasTable("t1"));
  EXPECT_EQ(catalog.GetTable("t1").value().get(), t.get());
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"t1"});
  ASSERT_TRUE(catalog.DropTable("t1").ok());
  EXPECT_FALSE(catalog.HasTable("t1"));
}

TEST(CatalogTest, DuplicateAndMissingErrors) {
  Catalog catalog;
  auto t = std::make_shared<Table>("t1", SimpleSchema());
  ASSERT_TRUE(catalog.AddTable(t).ok());
  EXPECT_EQ(catalog.AddTable(t).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.GetTable("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.DropTable("nope").code(), StatusCode::kNotFound);
  EXPECT_FALSE(catalog.AddTable(nullptr).ok());
}

TEST(CatalogTest, PutTableReplaces) {
  Catalog catalog;
  catalog.PutTable(std::make_shared<Table>("t", SimpleSchema()));
  auto replacement = std::make_shared<Table>("t", SimpleSchema());
  catalog.PutTable(replacement);
  EXPECT_EQ(catalog.GetTable("t").value().get(), replacement.get());
  EXPECT_EQ(catalog.size(), 1u);
}

}  // namespace
}  // namespace acquire
