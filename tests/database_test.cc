#include "sql/database.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sql/btree.h"
#include "sql/heap_table.h"

namespace rql::sql {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_, "test");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  QueryResult Q(const std::string& sql) {
    auto result = db_->Query(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  Value Scalar(const std::string& sql) {
    auto v = db_->QueryScalar(sql);
    EXPECT_TRUE(v.ok()) << sql << " -> " << v.status().ToString();
    return v.ok() ? *v : Value::Null();
  }

  void Ok(const std::string& sql) {
    Status s = db_->Exec(sql);
    ASSERT_TRUE(s.ok()) << sql << " -> " << s.ToString();
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateInsertSelect) {
  Ok("CREATE TABLE t (a INTEGER, b TEXT)");
  Ok("INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  QueryResult r = Q("SELECT * FROM t");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.rows[0][0].integer(), 1);
  EXPECT_EQ(r.rows[1][1].text(), "two");
}

TEST_F(DatabaseTest, InsertWithColumnListFillsNulls) {
  Ok("CREATE TABLE t (a INTEGER, b TEXT, c REAL)");
  Ok("INSERT INTO t (c, a) VALUES (1.5, 7)");
  QueryResult r = Q("SELECT a, b, c FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].integer(), 7);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_DOUBLE_EQ(r.rows[0][2].real(), 1.5);
}

TEST_F(DatabaseTest, WhereFiltersAndExpressions) {
  Ok("CREATE TABLE n (x INTEGER)");
  for (int i = 1; i <= 10; ++i) {
    Ok("INSERT INTO n VALUES (" + std::to_string(i) + ")");
  }
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM n WHERE x > 5").integer(), 5);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM n WHERE x % 2 = 0").integer(), 5);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM n WHERE x > 3 AND x <= 7").integer(),
            4);
  EXPECT_EQ(Scalar("SELECT SUM(x * 2) FROM n").integer(), 110);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM n WHERE NOT x = 1").integer(), 9);
}

TEST_F(DatabaseTest, NullSemantics) {
  Ok("CREATE TABLE t (a INTEGER)");
  Ok("INSERT INTO t VALUES (1), (NULL), (3)");
  // NULL comparisons are unknown -> filtered out.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE a = 1").integer(), 1);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE a != 1").integer(), 1);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE a IS NULL").integer(), 1);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE a IS NOT NULL").integer(),
            2);
  // COUNT(a) skips NULLs; COUNT(*) does not.
  EXPECT_EQ(Scalar("SELECT COUNT(a) FROM t").integer(), 2);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").integer(), 3);
  // SUM ignores NULLs.
  EXPECT_EQ(Scalar("SELECT SUM(a) FROM t").integer(), 4);
}

TEST_F(DatabaseTest, Aggregates) {
  Ok("CREATE TABLE s (v REAL)");
  Ok("INSERT INTO s VALUES (1.0), (2.0), (3.0), (4.0)");
  EXPECT_DOUBLE_EQ(Scalar("SELECT AVG(v) FROM s").real(), 2.5);
  EXPECT_DOUBLE_EQ(Scalar("SELECT MIN(v) FROM s").real(), 1.0);
  EXPECT_DOUBLE_EQ(Scalar("SELECT MAX(v) FROM s").real(), 4.0);
  EXPECT_DOUBLE_EQ(Scalar("SELECT SUM(v) FROM s").real(), 10.0);
  // Aggregates over an empty relation.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM s WHERE v > 100").integer(), 0);
  EXPECT_TRUE(Scalar("SELECT SUM(v) FROM s WHERE v > 100").is_null());
  EXPECT_TRUE(Scalar("SELECT AVG(v) FROM s WHERE v > 100").is_null());
}

TEST_F(DatabaseTest, GroupByHavingOrder) {
  Ok("CREATE TABLE orders2 (cust INTEGER, price REAL)");
  Ok("INSERT INTO orders2 VALUES (1, 10.0), (1, 20.0), (2, 5.0), "
     "(3, 7.0), (3, 8.0), (3, 9.0)");
  QueryResult r = Q(
      "SELECT cust, COUNT(*) AS cn, AVG(price) AS av FROM orders2 "
      "GROUP BY cust ORDER BY cust");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].integer(), 2);
  EXPECT_DOUBLE_EQ(r.rows[0][2].real(), 15.0);
  EXPECT_EQ(r.rows[2][1].integer(), 3);
  EXPECT_DOUBLE_EQ(r.rows[2][2].real(), 8.0);

  r = Q("SELECT cust FROM orders2 GROUP BY cust HAVING COUNT(*) >= 2 "
        "ORDER BY cust DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].integer(), 3);
  EXPECT_EQ(r.rows[1][0].integer(), 1);
}

TEST_F(DatabaseTest, BareColumnInAggregateQuery) {
  // SQLite-style: a non-aggregated, non-grouped column takes a value from
  // some row of the group (we define: the first).
  Ok("CREATE TABLE t (k INTEGER, v INTEGER)");
  Ok("INSERT INTO t VALUES (1, 100), (1, 200)");
  QueryResult r = Q("SELECT k, MAX(v), v FROM t GROUP BY k");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].integer(), 200);
  EXPECT_EQ(r.rows[0][2].integer(), 100);
}

TEST_F(DatabaseTest, DistinctAndLimit) {
  Ok("CREATE TABLE d (x INTEGER)");
  Ok("INSERT INTO d VALUES (1), (2), (2), (3), (3), (3)");
  QueryResult r = Q("SELECT DISTINCT x FROM d ORDER BY x");
  ASSERT_EQ(r.rows.size(), 3u);
  r = Q("SELECT x FROM d ORDER BY x DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].integer(), 3);
  r = Q("SELECT x FROM d LIMIT 4");
  EXPECT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(Scalar("SELECT COUNT(DISTINCT x) FROM d").integer(), 3);
}

TEST_F(DatabaseTest, JoinWithTransientIndex) {
  Ok("CREATE TABLE part2 (pk INTEGER, ptype TEXT)");
  Ok("CREATE TABLE item2 (fk INTEGER, price REAL)");
  Ok("INSERT INTO part2 VALUES (1, 'TIN'), (2, 'GOLD'), (3, 'TIN')");
  Ok("INSERT INTO item2 VALUES (1, 10.0), (1, 5.0), (2, 100.0), (3, 2.0)");
  QueryResult r = Q(
      "SELECT SUM(price) AS revenue FROM item2, part2 "
      "WHERE pk = fk AND ptype = 'TIN'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].real(), 17.0);
  EXPECT_TRUE(db_->last_stats().exec.used_transient_index);
  EXPECT_GT(db_->last_stats().exec.index_build_us, -1);
}

TEST_F(DatabaseTest, JoinWithNativeIndex) {
  Ok("CREATE TABLE part2 (pk INTEGER, ptype TEXT)");
  Ok("CREATE TABLE item2 (fk INTEGER, price REAL)");
  Ok("CREATE INDEX item2_fk ON item2 (fk)");
  Ok("INSERT INTO part2 VALUES (1, 'TIN'), (2, 'GOLD')");
  Ok("INSERT INTO item2 VALUES (1, 10.0), (1, 5.0), (2, 100.0)");
  QueryResult r = Q(
      "SELECT SUM(price) FROM item2, part2 WHERE pk = fk AND ptype = 'TIN'");
  EXPECT_DOUBLE_EQ(r.rows[0][0].real(), 15.0);
  EXPECT_TRUE(db_->last_stats().exec.used_native_index);
  EXPECT_FALSE(db_->last_stats().exec.used_transient_index);
}

TEST_F(DatabaseTest, QualifiedColumnsAndAliases) {
  Ok("CREATE TABLE a (id INTEGER, v TEXT)");
  Ok("CREATE TABLE b (id INTEGER, w TEXT)");
  Ok("INSERT INTO a VALUES (1, 'av')");
  Ok("INSERT INTO b VALUES (1, 'bw')");
  QueryResult r = Q(
      "SELECT x.v, y.w FROM a x JOIN b y ON x.id = y.id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].text(), "av");
  EXPECT_EQ(r.rows[0][1].text(), "bw");
  // Ambiguous unqualified column fails.
  EXPECT_FALSE(db_->Query("SELECT id FROM a x, b y").ok());
}

TEST_F(DatabaseTest, UpdateAndDelete) {
  Ok("CREATE TABLE t (id INTEGER, v INTEGER)");
  Ok("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  Ok("UPDATE t SET v = v + 1 WHERE id >= 2");
  EXPECT_EQ(Scalar("SELECT SUM(v) FROM t").integer(), 10 + 21 + 31);
  Ok("DELETE FROM t WHERE id = 2");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").integer(), 2);
  Ok("DELETE FROM t");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").integer(), 0);
}

TEST_F(DatabaseTest, DeleteViaIndexKeepsIndexConsistent) {
  Ok("CREATE TABLE t (id INTEGER, v TEXT)");
  Ok("CREATE INDEX t_id ON t (id)");
  for (int i = 0; i < 50; ++i) {
    Ok("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v')");
  }
  Ok("DELETE FROM t WHERE id = 25");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").integer(), 49);
  // The index path must not see the deleted row either (join probe).
  Ok("CREATE TABLE probe (id INTEGER)");
  Ok("INSERT INTO probe VALUES (25), (26)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM probe, t WHERE t.id = probe.id")
                .integer(),
            1);
}

TEST_F(DatabaseTest, CreateTableAsSelect) {
  Ok("CREATE TABLE src (a INTEGER, b TEXT)");
  Ok("INSERT INTO src VALUES (1, 'x'), (2, 'y')");
  Ok("CREATE TABLE dst AS SELECT a * 10 AS a10, b FROM src");
  QueryResult r = Q("SELECT a10, b FROM dst ORDER BY a10");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].integer(), 10);
  EXPECT_EQ(r.rows[1][0].integer(), 20);
}

TEST_F(DatabaseTest, InsertSelect) {
  Ok("CREATE TABLE src (a INTEGER)");
  Ok("CREATE TABLE dst (a INTEGER)");
  Ok("INSERT INTO src VALUES (1), (2), (3)");
  Ok("INSERT INTO dst SELECT a * 2 FROM src WHERE a > 1");
  QueryResult r = Q("SELECT a FROM dst ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].integer(), 4);
  EXPECT_EQ(r.rows[1][0].integer(), 6);
}

TEST_F(DatabaseTest, TransactionsRollback) {
  Ok("CREATE TABLE t (a INTEGER)");
  Ok("INSERT INTO t VALUES (1)");
  Ok("BEGIN");
  Ok("INSERT INTO t VALUES (2)");
  Ok("DELETE FROM t WHERE a = 1");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").integer(), 1);
  Ok("ROLLBACK");
  QueryResult r = Q("SELECT a FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].integer(), 1);
}

TEST_F(DatabaseTest, RollbackOfDdl) {
  Ok("BEGIN");
  Ok("CREATE TABLE temp_t (a INTEGER)");
  Ok("INSERT INTO temp_t VALUES (1)");
  Ok("ROLLBACK");
  EXPECT_FALSE(db_->Query("SELECT * FROM temp_t").ok());
}

TEST_F(DatabaseTest, CommitWithSnapshotAndAsOf) {
  Ok("CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)");
  Ok("INSERT INTO LoggedIn VALUES "
     "('UserA', '2008-11-09 13:23:44', 'USA'), "
     "('UserB', '2008-11-09 15:45:21', 'UK'), "
     "('UserC', '2008-11-09 15:45:21', 'USA')");
  Ok("BEGIN; COMMIT WITH SNAPSHOT;");
  EXPECT_EQ(db_->last_declared_snapshot(), 1u);

  Ok("BEGIN; DELETE FROM LoggedIn WHERE l_userid = 'UserA'; "
     "COMMIT WITH SNAPSHOT;");
  EXPECT_EQ(db_->last_declared_snapshot(), 2u);

  Ok("BEGIN; INSERT INTO LoggedIn VALUES "
     "('UserD', '2008-11-11 10:08:04', 'UK'); COMMIT WITH SNAPSHOT;");
  EXPECT_EQ(db_->last_declared_snapshot(), 3u);

  // The paper's Figure 1: snapshot states.
  EXPECT_EQ(Scalar("SELECT AS OF 1 COUNT(*) FROM LoggedIn").integer(), 3);
  EXPECT_EQ(Scalar("SELECT AS OF 2 COUNT(*) FROM LoggedIn").integer(), 2);
  EXPECT_EQ(Scalar("SELECT AS OF 3 COUNT(*) FROM LoggedIn").integer(), 3);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM LoggedIn").integer(), 3);

  // Snapshot 2 must not include UserA (reflects the declaring txn).
  EXPECT_EQ(Scalar("SELECT AS OF 2 COUNT(*) FROM LoggedIn "
                   "WHERE l_userid = 'UserA'").integer(), 0);
  // Snapshot 3 includes UserD; snapshot 2 does not.
  EXPECT_EQ(Scalar("SELECT AS OF 3 COUNT(*) FROM LoggedIn "
                   "WHERE l_userid = 'UserD'").integer(), 1);
  EXPECT_EQ(Scalar("SELECT AS OF 2 COUNT(*) FROM LoggedIn "
                   "WHERE l_userid = 'UserD'").integer(), 0);
}

TEST_F(DatabaseTest, AsOfSeesOldCatalog) {
  Ok("CREATE TABLE t (a INTEGER)");
  Ok("INSERT INTO t VALUES (1)");
  Ok("BEGIN; COMMIT WITH SNAPSHOT;");
  Ok("DROP TABLE t");
  EXPECT_FALSE(db_->Query("SELECT * FROM t").ok());
  // The dropped table still exists as of snapshot 1.
  EXPECT_EQ(Scalar("SELECT AS OF 1 COUNT(*) FROM t").integer(), 1);
}

TEST_F(DatabaseTest, AsOfUnknownSnapshotFails) {
  Ok("CREATE TABLE t (a INTEGER)");
  EXPECT_FALSE(db_->Query("SELECT AS OF 9 * FROM t").ok());
}

TEST_F(DatabaseTest, ScalarFunctionsAndUdf) {
  EXPECT_EQ(Scalar("SELECT ABS(-5)").integer(), 5);
  EXPECT_EQ(Scalar("SELECT LENGTH('hello')").integer(), 5);
  EXPECT_EQ(Scalar("SELECT UPPER('abc')").text(), "ABC");
  EXPECT_EQ(Scalar("SELECT SUBSTR('abcdef', 2, 3)").text(), "bcd");
  EXPECT_EQ(Scalar("SELECT COALESCE(NULL, NULL, 7)").integer(), 7);
  EXPECT_EQ(Scalar("SELECT IFNULL(NULL, 3)").integer(), 3);
  EXPECT_EQ(Scalar("SELECT TYPEOF('x')").text(), "TEXT");

  int calls = 0;
  db_->RegisterFunction("my_udf", 1, 1,
                        [&calls](const std::vector<Value>& args)
                            -> Result<Value> {
                          ++calls;
                          return Value::Integer(args[0].AsInt() * 3);
                        });
  EXPECT_EQ(Scalar("SELECT my_udf(4)").integer(), 12);
  EXPECT_EQ(calls, 1);

  // UDF invoked per row, like sqlite3 UDFs interposed on a SELECT.
  Ok("CREATE TABLE t (a INTEGER)");
  Ok("INSERT INTO t VALUES (1), (2), (3)");
  calls = 0;
  Q("SELECT my_udf(a) FROM t");
  EXPECT_EQ(calls, 3);
}

TEST_F(DatabaseTest, CurrentSnapshotFunction) {
  // Outside an RQL iteration it errors.
  EXPECT_FALSE(db_->Query("SELECT current_snapshot()").ok());
  db_->set_current_snapshot(5);
  EXPECT_EQ(Scalar("SELECT current_snapshot()").integer(), 5);
  db_->set_current_snapshot(retro::kNoSnapshot);
}

TEST_F(DatabaseTest, LikeOperator) {
  Ok("CREATE TABLE t (s TEXT)");
  Ok("INSERT INTO t VALUES ('STANDARD POLISHED TIN'), "
     "('SMALL PLATED COPPER'), ('STANDARD BRUSHED TIN')");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE s LIKE 'STANDARD%'")
                .integer(), 2);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE s LIKE '%TIN'").integer(),
            2);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE s LIKE '%PLATED%'")
                .integer(), 1);
}

TEST_F(DatabaseTest, OrderByAliasAndExpression) {
  Ok("CREATE TABLE t (a INTEGER, b INTEGER)");
  Ok("INSERT INTO t VALUES (1, 9), (2, 5), (3, 11)");
  QueryResult r = Q("SELECT a, b AS bee FROM t ORDER BY bee");
  EXPECT_EQ(r.rows[0][0].integer(), 2);
  r = Q("SELECT a, b FROM t ORDER BY a + b DESC");
  EXPECT_EQ(r.rows[0][0].integer(), 3);  // 3+7=10 first
}

TEST_F(DatabaseTest, SelectWithoutFrom) {
  QueryResult r = Q("SELECT 1 + 1, 'x'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].integer(), 2);
}

TEST_F(DatabaseTest, TableStats) {
  Ok("CREATE TABLE t (a INTEGER, b TEXT)");
  for (int i = 0; i < 200; ++i) {
    Ok("INSERT INTO t VALUES (" + std::to_string(i) + ", 'padpadpadpad')");
  }
  auto stats = db_->GetTableStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows, 200u);
  EXPECT_GT(stats->pages, 1u);
  EXPECT_EQ(stats->bytes, stats->pages * storage::kPageSize);
}

TEST_F(DatabaseTest, DropTableAndIfExists) {
  Ok("CREATE TABLE t (a INTEGER)");
  Ok("DROP TABLE t");
  EXPECT_FALSE(db_->Exec("DROP TABLE t").ok());
  Ok("DROP TABLE IF EXISTS t");
  Ok("CREATE TABLE IF NOT EXISTS u (a INTEGER)");
  Ok("CREATE TABLE IF NOT EXISTS u (a INTEGER)");
}

TEST_F(DatabaseTest, ErrorsDoNotCorruptState) {
  Ok("CREATE TABLE t (a INTEGER)");
  // Failing inserts roll back cleanly.
  EXPECT_FALSE(db_->Exec("INSERT INTO t VALUES (1, 2)").ok());
  EXPECT_FALSE(db_->Exec("INSERT INTO missing VALUES (1)").ok());
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").integer(), 0);
  Ok("INSERT INTO t VALUES (1)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").integer(), 1);
}

TEST_F(DatabaseTest, PersistsAcrossReopen) {
  Ok("CREATE TABLE t (a INTEGER)");
  Ok("INSERT INTO t VALUES (42)");
  Ok("BEGIN; COMMIT WITH SNAPSHOT;");
  Ok("UPDATE t SET a = 43");
  db_.reset();

  auto db = Database::Open(&env_, "test");
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  EXPECT_EQ(Scalar("SELECT a FROM t").integer(), 43);
  EXPECT_EQ(Scalar("SELECT AS OF 1 a FROM t").integer(), 42);
}


/// Database::UpdateRowAt against `t (k INTEGER, s TEXT, v INTEGER)` with
/// one index on k and one on s, filled through AppendRow past its first
/// heap page, so a row there that grows cannot stay put. Every case
/// checks both indexes key for key (encoded, so INTEGER 1 and REAL 1.0
/// differ) against the live heap rows, and an equality seek on each.
class UpdateRowAtTest : public DatabaseTest {
 protected:
  void SetUp() override {
    DatabaseTest::SetUp();
    Ok("CREATE TABLE t (k INTEGER, s TEXT, v INTEGER)");
    Ok("CREATE INDEX t_k ON t (k)");
    Ok("CREATE INDEX t_s ON t (s)");
    for (int i = 0; i < 150; ++i) {
      Row row = {Value::Integer(i % 5), Value::Text("s" + std::to_string(i)),
                 Value::Integer(i)};
      auto rid = db_->AppendRow("t", row);
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
      rows_.push_back({*rid, row});
    }
  }

  const IndexInfo* Index(const std::string& name) {
    return db_->catalog()->data().FindIndex(name);
  }

  /// Every key index `name` holds, encoded and sorted.
  std::vector<std::string> IndexKeys(const std::string& name) {
    std::vector<std::string> keys;
    auto it = BTree::SeekFirst(db_->store(), Index(name)->root);
    EXPECT_TRUE(it.ok());
    for (; it->Valid(); it->Next()) {
      // The trailing key column is the rid the entry points at.
      EXPECT_EQ(static_cast<uint64_t>(it->key().back().integer()),
                it->value());
      keys.push_back(EncodeRow(it->key()));
    }
    EXPECT_TRUE(it->status().ok());
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// The keys index `name` must hold: each live row's indexed columns and
  /// rid, encoded and sorted.
  std::vector<std::string> HeapKeys(const std::string& name) {
    const IndexInfo* index = Index(name);
    std::vector<std::string> keys;
    const TableInfo* table = db_->catalog()->data().FindTable("t");
    for (auto it = HeapTable::Scan(db_->store(), table->root); it.Valid();
         it.Next()) {
      auto row = DecodeRow(it.record());
      EXPECT_TRUE(row.ok());
      Row key;
      for (int idx : index->column_idx) {
        key.push_back((*row)[static_cast<size_t>(idx)]);
      }
      key.push_back(Value::Integer(static_cast<int64_t>(it.rid())));
      keys.push_back(EncodeRow(key));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Rids an equality seek on index `name` (one column) returns for
  /// `value`, against the live rows whose column `col` equals it.
  void ExpectSeekFindsLiveRows(const std::string& name, size_t col,
                               const Value& value) {
    std::vector<Rid> seek;
    auto it = BTree::Seek(db_->store(), Index(name)->root, {value});
    ASSERT_TRUE(it.ok());
    for (; it->Valid() && CompareValues(it->key()[0], value) == 0;
         it->Next()) {
      seek.push_back(it->value());
    }
    std::vector<Rid> live;
    const TableInfo* table = db_->catalog()->data().FindTable("t");
    for (auto h = HeapTable::Scan(db_->store(), table->root); h.Valid();
         h.Next()) {
      auto row = DecodeRow(h.record());
      ASSERT_TRUE(row.ok());
      if (CompareValues((*row)[col], value) == 0) live.push_back(h.rid());
    }
    std::sort(seek.begin(), seek.end());
    std::sort(live.begin(), live.end());
    EXPECT_EQ(seek, live) << name << " = " << value.ToString();
  }

  void ExpectIndexesMatchHeap() {
    for (const char* name : {"t_k", "t_s"}) {
      EXPECT_EQ(IndexKeys(name), HeapKeys(name)) << name;
    }
  }

  /// Replaces row `i` with `updated` and returns the row's new rid.
  Rid Update(size_t i, const Row& updated) {
    auto rid = db_->UpdateRowAt("t", rows_[i].first, rows_[i].second,
                                updated);
    EXPECT_TRUE(rid.ok()) << rid.status().ToString();
    rows_[i] = {rid.ok() ? *rid : 0, updated};
    return rows_[i].first;
  }

  std::vector<std::pair<Rid, Row>> rows_;
};

TEST_F(UpdateRowAtTest, InPlaceUpdateOfNonIndexedColumnKeepsIndexesCorrect) {
  Rid rid = rows_[7].first;
  Row updated = rows_[7].second;
  updated[2] = Value::Integer(700);
  EXPECT_EQ(Update(7, updated), rid);
  ExpectIndexesMatchHeap();
  ExpectSeekFindsLiveRows("t_k", 0, Value::Integer(2));
  ExpectSeekFindsLiveRows("t_s", 1, Value::Text("s7"));
  EXPECT_EQ(Scalar("SELECT v FROM t WHERE s = 's7'").integer(), 700);
}

TEST_F(UpdateRowAtTest, GrowingUpdateMovesRowAndRekeysEveryIndex) {
  Rid rid = rows_[7].first;
  Row updated = rows_[7].second;
  updated[1] = Value::Text(std::string(200, 'x'));
  Rid moved = Update(7, updated);
  EXPECT_NE(moved, rid);
  // t_k's column did not change, but its key carries the rid.
  ExpectIndexesMatchHeap();
  ExpectSeekFindsLiveRows("t_k", 0, Value::Integer(2));
  ExpectSeekFindsLiveRows("t_s", 1, Value::Text("s7"));
  ExpectSeekFindsLiveRows("t_s", 1, Value::Text(std::string(200, 'x')));
}

TEST_F(UpdateRowAtTest, IndexedColumnChangeRekeysThatIndex) {
  Row updated = rows_[7].second;
  updated[0] = Value::Integer(4);  // 2 -> 4, in place
  Rid rid = rows_[7].first;
  EXPECT_EQ(Update(7, updated), rid);
  ExpectIndexesMatchHeap();
  ExpectSeekFindsLiveRows("t_k", 0, Value::Integer(2));
  ExpectSeekFindsLiveRows("t_k", 0, Value::Integer(4));

  // INTEGER 1 -> REAL 1.0 compares equal, but the key bytes change, so
  // t_k must be re-keyed all the same.
  updated = rows_[6].second;
  ASSERT_EQ(updated[0].integer(), 1);
  updated[0] = Value::Real(1.0);
  rid = rows_[6].first;
  EXPECT_EQ(Update(6, updated), rid);
  ExpectIndexesMatchHeap();
  ExpectSeekFindsLiveRows("t_k", 0, Value::Integer(1));
  ExpectSeekFindsLiveRows("t_k", 0, Value::Real(1.0));
}

TEST_F(UpdateRowAtTest, OverwriteRowsTakesOnlyInPlaceUnindexedChanges) {
  // Non-indexed v changes in place on two heap pages; the indexes stay.
  std::vector<RecordOverwrite> overwrites;
  for (size_t i : {3, 140, 4}) {
    rows_[i].second[2] = Value::Integer(1000 + static_cast<int64_t>(i));
    overwrites.push_back({rows_[i].first, EncodeRow(rows_[i].second)});
  }
  ASSERT_NE(RidPage(rows_[3].first), RidPage(rows_[140].first));
  ASSERT_TRUE(db_->OverwriteRows("t", overwrites).ok());
  ExpectIndexesMatchHeap();
  EXPECT_EQ(Scalar("SELECT v FROM t WHERE s = 's140'").integer(), 1140);

  // A changed indexed column, even INTEGER 2 -> REAL 2.0 (equal, other
  // bytes), and a grown record are refused; nothing is written.
  Row rekeyed = rows_[7].second;
  rekeyed[0] = Value::Real(2.0);
  Row grown = rows_[8].second;
  grown[2] = Value::Text("a long replacement for an integer");
  for (const Row& row : {rekeyed, grown}) {
    Status s = db_->OverwriteRows(
        "t", {{rows_[3].first, EncodeRow(rows_[3].second)},
              {row == rekeyed ? rows_[7].first : rows_[8].first,
               EncodeRow(row)}});
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  }
  ExpectIndexesMatchHeap();
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE k = 2.0").integer(), 30);
  EXPECT_TRUE(db_->OverwriteRows("missing", {}).IsNotFound());
}

}  // namespace
}  // namespace rql::sql
