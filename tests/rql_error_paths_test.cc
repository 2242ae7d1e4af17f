// RQL engine error paths: a malformed Qq must surface before the first
// iteration touches the result table, an empty Qs set must be handled
// cleanly, and a mid-run iteration failure must abort without leaking a
// partial result table or its transient covering index.

#include <gtest/gtest.h>

#include <string>

#include "rql/rql.h"
#include "sql/database.h"
#include "storage/env.h"

namespace rql {
namespace {

using sql::Value;

class RqlErrorPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = sql::Database::Open(&env_, "data");
    auto meta = sql::Database::Open(&env_, "meta");
    ASSERT_TRUE(data.ok() && meta.ok());
    data_ = std::move(*data);
    meta_ = std::move(*meta);
    engine_ = std::make_unique<RqlEngine>(data_.get(), meta_.get());
    ASSERT_TRUE(engine_->EnsureSnapIds().ok());
    Ok(data_.get(), "CREATE TABLE t (k INTEGER, v TEXT)");
    for (int snap = 1; snap <= 3; ++snap) {
      Ok(data_.get(), "BEGIN; INSERT INTO t VALUES (" +
                          std::to_string(snap) + ", 'v" +
                          std::to_string(snap) + "');");
      auto s = engine_->CommitWithSnapshot("ts" + std::to_string(snap));
      ASSERT_TRUE(s.ok()) << s.status().ToString();
    }
  }

  void Ok(sql::Database* db, const std::string& sql) {
    Status s = db->Exec(sql);
    ASSERT_TRUE(s.ok()) << sql << " -> " << s.ToString();
  }

  bool TableExists(const std::string& name) {
    return meta_->catalog()->data().FindTable(name) != nullptr;
  }

  bool IndexExists(const std::string& name) {
    return meta_->catalog()->data().FindIndex(name) != nullptr;
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<sql::Database> data_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<RqlEngine> engine_;
};

TEST_F(RqlErrorPathsTest, MalformedQqSurfacesBeforeAnyIteration) {
  // A pre-existing result table must survive: validation happens before
  // PrepareResultTable drops anything.
  Ok(meta_.get(), "CREATE TABLE Result (marker TEXT)");
  Ok(meta_.get(), "INSERT INTO Result VALUES ('keep me')");

  Status s = engine_->CollateData("SELECT snap_id FROM SnapIds",
                                  "SELEKT broken FROM", "Result");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(engine_->last_run_stats().iterations.empty());

  auto r = meta_->Query("SELECT marker FROM Result");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].text(), "keep me");
}

TEST_F(RqlErrorPathsTest, EmptyQqIsRejectedUpfront) {
  Status s = engine_->CollateData("SELECT snap_id FROM SnapIds", "   ",
                                  "Result");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(TableExists("Result"));
}

TEST_F(RqlErrorPathsTest, MalformedQsLeavesResultTableIntact) {
  Ok(meta_.get(), "CREATE TABLE Result (marker TEXT)");
  Ok(meta_.get(), "INSERT INTO Result VALUES ('keep me')");
  Status s = engine_->CollateData("SELECT nope FROM NoSuchTable",
                                  "SELECT k FROM t", "Result");
  EXPECT_FALSE(s.ok());
  auto r = meta_->Query("SELECT marker FROM Result");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(RqlErrorPathsTest, EmptyQsSetSucceedsWithDefinedState) {
  Status s = engine_->CollateData(
      "SELECT snap_id FROM SnapIds WHERE snap_id > 100",
      "SELECT k, current_snapshot() AS sid FROM t", "Result");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(engine_->last_run_stats().iterations.empty());
  // No iteration appended a row, so the (replaced) result table was never
  // recreated.
  EXPECT_FALSE(TableExists("Result"));
}

TEST_F(RqlErrorPathsTest, MidRunFailureLeavesNoPartialResults) {
  data_->RegisterFunction(
      "fail_on_snap2", 1, 1,
      [](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].AsInt() == 2) {
          return Status::IoError("injected iteration failure");
        }
        return Value::Integer(args[0].AsInt());
      });

  // AggregateDataInTable creates both the result table and its transient
  // <table>_rql_idx covering index mid-run; iteration 2 then fails.
  Status s = engine_->AggregateDataInTable(
      "SELECT snap_id FROM SnapIds ORDER BY snap_id",
      "SELECT k, fail_on_snap2(current_snapshot()) AS mx FROM t", "Result",
      std::string("(mx,max)"));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();

  // The partial result table and its covering index were discarded.
  EXPECT_FALSE(TableExists("Result"));
  EXPECT_FALSE(IndexExists("Result_rql_idx"));
  // The metadata database is out of the per-iteration transaction and
  // fully usable.
  EXPECT_FALSE(meta_->store()->in_transaction());
  Ok(meta_.get(), "BEGIN; CREATE TABLE after (x INTEGER); COMMIT");
  EXPECT_TRUE(TableExists("after"));

  // A rerun without the failure succeeds and recreates the table.
  Status ok = engine_->AggregateDataInTable(
      "SELECT snap_id FROM SnapIds ORDER BY snap_id",
      "SELECT k, current_snapshot() AS mx FROM t", "Result",
      std::string("(mx,max)"));
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_TRUE(TableExists("Result"));
}

TEST_F(RqlErrorPathsTest, MidRunFailureInCollateDropsCreatedTable) {
  data_->RegisterFunction(
      "fail_on_snap3", 1, 1,
      [](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].AsInt() == 3) {
          return Status::IoError("injected iteration failure");
        }
        return Value::Integer(args[0].AsInt());
      });
  Status s = engine_->CollateData(
      "SELECT snap_id FROM SnapIds ORDER BY snap_id",
      "SELECT k, fail_on_snap3(current_snapshot()) AS sid FROM t", "Result");
  EXPECT_FALSE(s.ok());
  // Iterations 1 and 2 had appended rows; the failure discarded them all.
  EXPECT_FALSE(TableExists("Result"));
}

TEST_F(RqlErrorPathsTest, RunScopedMemoRecordsWithoutHitting) {
  // A fresh memo is run-scoped: the run memoizes for itself, so it hits
  // nothing, and every iteration it did not skip is a miss it records.
  auto memo = std::make_unique<retro::MemoTable>();
  engine_->mutable_options()->memo = memo.get();
  Status s = engine_->CollateData("SELECT snap_id FROM SnapIds",
                                  "SELECT k FROM t", "Result");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(TableExists("Result"));
  const RqlRunStats& stats = engine_->last_run_stats();
  EXPECT_FALSE(stats.iterations.empty());
  for (const RqlIterationStats& it : stats.iterations) {
    EXPECT_EQ(it.memo_hits, 0);
    EXPECT_EQ(it.memo_misses + (it.skipped ? 1 : 0), 1);
  }
  EXPECT_GT(memo->entry_count(), 0u);
}

}  // namespace
}  // namespace rql
