#include "rql/rql.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "bench_common.h"
#include "sql/btree.h"
#include "sql/heap_table.h"
#include "sql/shared_scan_cache.h"
#include "storage/fault_env.h"

namespace rql {
namespace {

using sql::Row;
using sql::Value;

/// Builds the paper's LoggedIn example (Figures 1-3): three snapshots of a
/// login table.
class RqlLoggedInTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = sql::Database::Open(&env_, "data");
    auto meta = sql::Database::Open(&env_, "meta");
    ASSERT_TRUE(data.ok() && meta.ok());
    data_ = std::move(*data);
    meta_ = std::move(*meta);
    engine_ = std::make_unique<RqlEngine>(data_.get(), meta_.get());
    ASSERT_TRUE(engine_->EnsureSnapIds().ok());

    Ok(data_.get(),
       "CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)");
    Ok(data_.get(),
       "INSERT INTO LoggedIn VALUES "
       "('UserA', '2008-11-09 13:23:44', 'USA'), "
       "('UserB', '2008-11-09 15:45:21', 'UK'), "
       "('UserC', '2008-11-09 15:45:21', 'USA')");
    // Snapshot 1.
    auto s1 = engine_->CommitWithSnapshot("2008-11-09 23:59:59");
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(*s1, 1u);
    // Snapshot 2: UserA logs out (deleted by the declaring transaction).
    Ok(data_.get(), "BEGIN; DELETE FROM LoggedIn WHERE l_userid = 'UserA';");
    auto s2 = engine_->CommitWithSnapshot("2008-11-10 23:59:59");
    ASSERT_TRUE(s2.ok());
    // Snapshot 3: UserD logs in.
    Ok(data_.get(),
       "BEGIN; INSERT INTO LoggedIn (l_userid, l_time, l_country) VALUES "
       "('UserD', '2008-11-11 10:08:04', 'UK');");
    auto s3 = engine_->CommitWithSnapshot("2008-11-11 23:59:59");
    ASSERT_TRUE(s3.ok());
  }

  void Ok(sql::Database* db, const std::string& sql) {
    Status s = db->Exec(sql);
    ASSERT_TRUE(s.ok()) << sql << " -> " << s.ToString();
  }

  sql::QueryResult Q(sql::Database* db, const std::string& sql) {
    auto r = db->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : sql::QueryResult{};
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<sql::Database> data_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<RqlEngine> engine_;
};

TEST_F(RqlLoggedInTest, SnapIdsIsPopulated) {
  sql::QueryResult r =
      Q(meta_.get(), "SELECT snap_id, snap_ts FROM SnapIds ORDER BY snap_id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].integer(), 1);
  EXPECT_EQ(r.rows[2][1].text(), "2008-11-11 23:59:59");
}

TEST_F(RqlLoggedInTest, CollateDataCollectsUsersPerSnapshot) {
  // The paper's first example: all user ids with the snapshot they appear
  // in.
  Status s = engine_->CollateData(
      "SELECT snap_id FROM SnapIds",
      "SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn",
      "Result");
  ASSERT_TRUE(s.ok()) << s.ToString();

  sql::QueryResult r =
      Q(meta_.get(), "SELECT l_userid, sid FROM Result ORDER BY sid, l_userid");
  // S1: A,B,C  S2: B,C  S3: B,C,D  -> 8 rows.
  ASSERT_EQ(r.rows.size(), 8u);
  std::multimap<int64_t, std::string> expected = {
      {1, "UserA"}, {1, "UserB"}, {1, "UserC"}, {2, "UserB"},
      {2, "UserC"}, {3, "UserB"}, {3, "UserC"}, {3, "UserD"}};
  auto it = expected.begin();
  for (const Row& row : r.rows) {
    EXPECT_EQ(row[1].integer(), it->first);
    EXPECT_EQ(row[0].text(), it->second);
    ++it;
  }
  // Three iterations ran.
  EXPECT_EQ(engine_->last_run_stats().iterations.size(), 3u);
}

TEST_F(RqlLoggedInTest, AggregateDataInVariableCountsSnapshots) {
  // Count the number of snapshots in which UserB is logged in (paper §2.2).
  Status s = engine_->AggregateDataInVariable(
      "SELECT snap_id FROM SnapIds",
      "SELECT DISTINCT 1 FROM LoggedIn WHERE l_userid = 'UserB'",
      "Result", "sum");
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r = Q(meta_.get(), "SELECT * FROM Result");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].integer(), 3);
}

TEST_F(RqlLoggedInTest, AggregateDataInVariableFirstOccurrence) {
  // First snapshot in which UserD appears (paper §2.2, "min").
  Status s = engine_->AggregateDataInVariable(
      "SELECT snap_id FROM SnapIds",
      "SELECT DISTINCT current_snapshot() FROM LoggedIn "
      "WHERE l_userid = 'UserD'",
      "Result", "min");
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r = Q(meta_.get(), "SELECT * FROM Result");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].integer(), 3);
}

TEST_F(RqlLoggedInTest, AggregateDataInVariableAvg) {
  // Average number of logged-in users per snapshot: (3 + 2 + 3) / 3.
  Status s = engine_->AggregateDataInVariable(
      "SELECT snap_id FROM SnapIds",
      "SELECT COUNT(*) AS c FROM LoggedIn", "Result", "avg");
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r = Q(meta_.get(), "SELECT * FROM Result");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].real(), 8.0 / 3.0);
}

TEST_F(RqlLoggedInTest, AggregateDataInTableFirstLoginPerUser) {
  // Paper §2.3: first time each user logged in.
  Status s = engine_->AggregateDataInTable(
      "SELECT snap_id FROM SnapIds",
      "SELECT DISTINCT l_userid, l_time FROM LoggedIn", "Result",
      "(l_time,min)");
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r = Q(
      meta_.get(), "SELECT l_userid, l_time FROM Result ORDER BY l_userid");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][0].text(), "UserA");
  EXPECT_EQ(r.rows[3][0].text(), "UserD");
  EXPECT_EQ(r.rows[3][1].text(), "2008-11-11 10:08:04");
}

TEST_F(RqlLoggedInTest, AggregateDataInTableMaxSimultaneousPerCountry) {
  // Paper §2.3: per country, the maximum number of simultaneously
  // logged-in users.
  Status s = engine_->AggregateDataInTable(
      "SELECT snap_id FROM SnapIds",
      "SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country",
      "Result", "(c,max)");
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r =
      Q(meta_.get(), "SELECT l_country, c FROM Result ORDER BY l_country");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].text(), "UK");   // max 2 (B, D in S3)
  EXPECT_EQ(r.rows[0][1].integer(), 2);
  EXPECT_EQ(r.rows[1][0].text(), "USA");  // max 2 (A, C in S1)
  EXPECT_EQ(r.rows[1][1].integer(), 2);
}

TEST_F(RqlLoggedInTest, CollateDataIntoIntervalsLifetimes) {
  // Paper §2.4: the interval during which each user was logged in.
  Status s = engine_->CollateDataIntoIntervals(
      "SELECT snap_id FROM SnapIds",
      "SELECT l_userid FROM LoggedIn", "Result");
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r = Q(
      meta_.get(),
      "SELECT l_userid, start_snapshot, end_snapshot FROM Result "
      "ORDER BY l_userid");
  ASSERT_EQ(r.rows.size(), 4u);
  // UserA: [1,1]; UserB: [1,3]; UserC: [1,3]; UserD: [3,3].
  EXPECT_EQ(r.rows[0][0].text(), "UserA");
  EXPECT_EQ(r.rows[0][1].integer(), 1);
  EXPECT_EQ(r.rows[0][2].integer(), 1);
  EXPECT_EQ(r.rows[1][0].text(), "UserB");
  EXPECT_EQ(r.rows[1][1].integer(), 1);
  EXPECT_EQ(r.rows[1][2].integer(), 3);
  EXPECT_EQ(r.rows[3][0].text(), "UserD");
  EXPECT_EQ(r.rows[3][1].integer(), 3);
  EXPECT_EQ(r.rows[3][2].integer(), 3);
}

TEST_F(RqlLoggedInTest, IntervalsReopenAfterGap) {
  // A record that disappears and reappears gets two lifetime intervals.
  Ok(data_.get(), "BEGIN; DELETE FROM LoggedIn WHERE l_userid = 'UserB';");
  ASSERT_TRUE(engine_->CommitWithSnapshot("ts4").ok());  // S4: no UserB
  Ok(data_.get(),
     "BEGIN; INSERT INTO LoggedIn VALUES ('UserB', 't', 'UK');");
  ASSERT_TRUE(engine_->CommitWithSnapshot("ts5").ok());  // S5: UserB back

  Status s = engine_->CollateDataIntoIntervals(
      "SELECT snap_id FROM SnapIds",
      "SELECT l_userid FROM LoggedIn", "Result");
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r = Q(
      meta_.get(),
      "SELECT start_snapshot, end_snapshot FROM Result "
      "WHERE l_userid = 'UserB' ORDER BY start_snapshot");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].integer(), 1);
  EXPECT_EQ(r.rows[0][1].integer(), 3);
  EXPECT_EQ(r.rows[1][0].integer(), 5);
  EXPECT_EQ(r.rows[1][1].integer(), 5);
}

TEST_F(RqlLoggedInTest, QsCanSelectSubsetsAndSkips) {
  // Qs is ordinary SQL: restrict to snapshots 2..3.
  Status s = engine_->CollateData(
      "SELECT snap_id FROM SnapIds WHERE snap_id >= 2",
      "SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn",
      "Result");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(engine_->last_run_stats().iterations.size(), 2u);
  sql::QueryResult r = Q(meta_.get(), "SELECT COUNT(*) FROM Result");
  EXPECT_EQ(r.rows[0][0].integer(), 5);  // 2 + 3 users
}

TEST_F(RqlLoggedInTest, UdfFormMatchesPaperSyntax) {
  // The SQL-embedded form of Section 3.
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  Status s = meta_->Exec(
      "SELECT CollateData(snap_id, "
      "'SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn', "
      "'Result') FROM SnapIds");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
  sql::QueryResult r = Q(meta_.get(), "SELECT COUNT(*) FROM Result");
  EXPECT_EQ(r.rows[0][0].integer(), 8);
}

TEST_F(RqlLoggedInTest, UdfFormAggregateVariable) {
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  sql::QueryResult running = Q(
      meta_.get(),
      "SELECT AggregateDataInVariable(snap_id, "
      "'SELECT DISTINCT current_snapshot() AS sid FROM LoggedIn "
      "WHERE l_userid = ''UserB'' ', 'Result', 'min') FROM SnapIds");
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
  ASSERT_EQ(running.rows.size(), 3u);
  EXPECT_EQ(running.rows.back()[0].integer(), 1);
  sql::QueryResult r = Q(meta_.get(), "SELECT * FROM Result");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].integer(), 1);
}

TEST_F(RqlLoggedInTest, UdfFormAggregateTable) {
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  Status s = meta_->Exec(
      "SELECT AggregateDataInTable(snap_id, "
      "'SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country', "
      "'Result', '(c,max)') FROM SnapIds");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
  sql::QueryResult r =
      Q(meta_.get(), "SELECT l_country, c FROM Result ORDER BY l_country");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].integer(), 2);
  EXPECT_EQ(r.rows[1][1].integer(), 2);
}

TEST_F(RqlLoggedInTest, UdfFormIntervals) {
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  Status s = meta_->Exec(
      "SELECT CollateDataIntoIntervals(snap_id, "
      "'SELECT l_userid FROM LoggedIn', 'Result') FROM SnapIds");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
  sql::QueryResult r = Q(
      meta_.get(),
      "SELECT start_snapshot, end_snapshot FROM Result "
      "WHERE l_userid = 'UserB'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].integer(), 1);
  EXPECT_EQ(r.rows[0][1].integer(), 3);
}

TEST_F(RqlLoggedInTest, UdfFormTwoMechanismsInOneStatement) {
  // Each UDF call keyed by its result table: two mechanisms can share one
  // driving SELECT over SnapIds.
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  Status s = meta_->Exec(
      "SELECT CollateData(snap_id, 'SELECT l_userid FROM LoggedIn', 'A'), "
      "AggregateDataInVariable(snap_id, "
      "'SELECT COUNT(*) AS c FROM LoggedIn', 'B', 'max') FROM SnapIds");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
  EXPECT_EQ(Q(meta_.get(), "SELECT COUNT(*) FROM A").rows[0][0].integer(),
            8);
  EXPECT_EQ(Q(meta_.get(), "SELECT * FROM B").rows[0][0].integer(), 3);
}

TEST_F(RqlLoggedInTest, AllColdOptionMatchesResults) {
  // The all-cold baseline (one cold one-snapshot run per snapshot) must
  // not change any result: folding its per-snapshot results gives the
  // shared run's table.
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const std::string qq =
      "SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country";
  ASSERT_TRUE(engine_->AggregateDataInTable(qs, qq, "Warm", "(c,max)").ok());
  std::map<std::string, int64_t> cold;
  auto all_cold = bench::MeasureAllCold(
      engine_.get(), qs, [&](const std::string& one_qs) -> Status {
        RQL_RETURN_IF_ERROR(
            engine_->AggregateDataInTable(one_qs, qq, "Cold", "(c,max)"));
        for (const Row& row :
             Q(meta_.get(), "SELECT l_country, c FROM Cold").rows) {
          int64_t& c = cold[row[0].text()];
          c = std::max(c, row[1].integer());
        }
        return Status::OK();
      });
  ASSERT_TRUE(all_cold.ok()) << all_cold.status().ToString();
  EXPECT_GT(all_cold->pagelog_pages, 0);
  sql::QueryResult warm =
      Q(meta_.get(), "SELECT l_country, c FROM Warm ORDER BY l_country");
  ASSERT_EQ(warm.rows.size(), cold.size());
  for (const Row& row : warm.rows) {
    EXPECT_EQ(row[1].integer(), cold[row[0].text()]) << row[0].text();
  }
}

TEST_F(RqlLoggedInTest, SortMergeStrategyMatchesIndexProbe) {
  // The alternative the paper reports trying (and finding costlier) must
  // produce identical results.
  const char* qq =
      "SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country";
  ASSERT_TRUE(engine_
                  ->AggregateDataInTable("SELECT snap_id FROM SnapIds", qq,
                                         "ViaProbe", "(c,max)")
                  .ok());
  engine_->mutable_options()->agg_table_strategy =
      AggTableStrategy::kSortMerge;
  Status s = engine_->AggregateDataInTable("SELECT snap_id FROM SnapIds",
                                           qq, "ViaMerge", "(c,max)");
  engine_->mutable_options()->agg_table_strategy =
      AggTableStrategy::kIndexProbe;
  ASSERT_TRUE(s.ok()) << s.ToString();

  sql::QueryResult probe =
      Q(meta_.get(), "SELECT l_country, c FROM ViaProbe ORDER BY l_country");
  sql::QueryResult merge =
      Q(meta_.get(), "SELECT l_country, c FROM ViaMerge ORDER BY l_country");
  ASSERT_EQ(probe.rows.size(), merge.rows.size());
  for (size_t i = 0; i < probe.rows.size(); ++i) {
    EXPECT_EQ(probe.rows[i][0].text(), merge.rows[i][0].text());
    EXPECT_EQ(probe.rows[i][1].integer(), merge.rows[i][1].integer());
  }
}

TEST_F(RqlLoggedInTest, SortMergeWithAvgAggregate) {
  engine_->mutable_options()->agg_table_strategy =
      AggTableStrategy::kSortMerge;
  Status s = engine_->AggregateDataInTable(
      "SELECT snap_id FROM SnapIds",
      "SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country",
      "AvgMerge", "(c,avg)");
  engine_->mutable_options()->agg_table_strategy =
      AggTableStrategy::kIndexProbe;
  ASSERT_TRUE(s.ok()) << s.ToString();
  sql::QueryResult r =
      Q(meta_.get(), "SELECT l_country, c FROM AvgMerge ORDER BY l_country");
  ASSERT_EQ(r.rows.size(), 2u);
  // UK: 1,1,2 logged in -> avg 4/3; USA: 2,1,1 -> avg 4/3.
  EXPECT_NEAR(r.rows[0][1].AsDouble(), 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.rows[1][1].AsDouble(), 4.0 / 3.0, 1e-9);
}

TEST_F(RqlLoggedInTest, InjectAsOfRewrite) {
  EXPECT_EQ(RqlEngine::InjectAsOf("SELECT * FROM t", 7),
            "SELECT AS OF 7 * FROM t");
  EXPECT_EQ(RqlEngine::InjectAsOf("select distinct x from t", 12),
            "select AS OF 12 distinct x from t");
  // String literals containing "select" are not touched.
  EXPECT_EQ(RqlEngine::InjectAsOf("SELECT 'select' FROM t", 1),
            "SELECT AS OF 1 'select' FROM t");
  // Word boundaries: "selection" is not SELECT.
  EXPECT_EQ(RqlEngine::InjectAsOf("selection SELECT x", 2),
            "selection SELECT AS OF 2 x");
}

TEST_F(RqlLoggedInTest, TruncateHistoryCleansSnapIds) {
  ASSERT_TRUE(engine_->TruncateHistory(2).ok());
  sql::QueryResult snaps =
      Q(meta_.get(), "SELECT snap_id FROM SnapIds ORDER BY snap_id");
  ASSERT_EQ(snaps.rows.size(), 2u);
  EXPECT_EQ(snaps.rows[0][0].integer(), 2);
  // Mechanisms over "all snapshots" now cover only the retained ones.
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT DISTINCT l_userid, "
                                "current_snapshot() AS sid FROM LoggedIn",
                                "Result")
                  .ok());
  EXPECT_EQ(engine_->last_run_stats().iterations.size(), 2u);
  sql::QueryResult r = Q(meta_.get(), "SELECT COUNT(*) FROM Result");
  EXPECT_EQ(r.rows[0][0].integer(), 5);  // S2: B,C  S3: B,C,D
  // The dropped snapshot is unreachable even by explicit Qs.
  Status s = engine_->CollateData(
      "SELECT 1", "SELECT l_userid FROM LoggedIn", "Result2");
  EXPECT_FALSE(s.ok());
}

TEST_F(RqlLoggedInTest, ParseColFuncPairsBothOrders) {
  auto pairs = RqlEngine::ParseColFuncPairs("(l_time,min)");
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0].column, "l_time");
  EXPECT_EQ((*pairs)[0].func, RqlAggFunc::kMin);

  pairs = RqlEngine::ParseColFuncPairs("(MAX,cn):(MAX,av)");
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 2u);
  EXPECT_EQ((*pairs)[0].column, "cn");
  EXPECT_EQ((*pairs)[0].func, RqlAggFunc::kMax);
  EXPECT_EQ((*pairs)[1].column, "av");

  EXPECT_FALSE(RqlEngine::ParseColFuncPairs("").ok());
  EXPECT_FALSE(RqlEngine::ParseColFuncPairs("(a,b)").ok());
}

TEST_F(RqlLoggedInTest, DistinctAggregatesRejected) {
  Status s = engine_->AggregateDataInVariable(
      "SELECT snap_id FROM SnapIds", "SELECT 1 FROM LoggedIn", "Result",
      "count distinct");
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
}

TEST_F(RqlLoggedInTest, AggVariableRejectsMultiRowQq) {
  Status s = engine_->AggregateDataInVariable(
      "SELECT snap_id FROM SnapIds",
      "SELECT l_userid FROM LoggedIn", "Result", "min");
  EXPECT_FALSE(s.ok());
}

TEST_F(RqlLoggedInTest, IterationStatsArePopulated) {
  ASSERT_TRUE(engine_
                  ->AggregateDataInVariable(
                      "SELECT snap_id FROM SnapIds",
                      "SELECT COUNT(*) AS c FROM LoggedIn", "Result", "max")
                  .ok());
  const RqlRunStats& stats = engine_->last_run_stats();
  ASSERT_EQ(stats.iterations.size(), 3u);
  for (const RqlIterationStats& it : stats.iterations) {
    EXPECT_GE(it.query_eval_us, 0);
    EXPECT_GE(it.spt_build_us, 0);
    EXPECT_EQ(it.qq_rows, 1);
  }
  // Old snapshots were overwritten, so iterating must touch the Pagelog.
  EXPECT_GT(stats.PagelogPages(), 0);
}

TEST(RqlTest, ReportedTimesAreMeasured) {
  // A cold paper-faithful run over ten snapshots reads dozens of archived
  // pages per iteration. The engine counts the pages and reports only
  // what it measured: its total fits inside the wall time around the
  // call, and the published rql.total_us is that same total.
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  RqlEngine engine(data->get(), meta->get());
  ASSERT_TRUE(engine.EnsureSnapIds().ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE t (k INTEGER, pad TEXT)").ok());
  const std::string pad(200, 'x');
  for (int batch = 0; batch < 10; ++batch) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 50; ++i) {
      insert += (i > 0 ? ", (" : "(") + std::to_string(batch * 50 + i) +
                ", '" + pad + "')";
    }
    ASSERT_TRUE((*data)->Exec(insert).ok());
  }
  constexpr int kSnapshots = 10;
  for (int i = 0; i < kSnapshots; ++i) {
    // Every snapshot but the last is overwritten, so its pages are archived.
    if (i > 0) {
      ASSERT_TRUE((*data)->Exec("BEGIN; UPDATE t SET k = k + 1").ok());
    }
    ASSERT_TRUE(engine.CommitWithSnapshot("s" + std::to_string(i)).ok());
  }
  retro::MetricsRegistry registry;
  engine.mutable_options()->metrics = &registry;

  (*data)->store()->ClearSnapshotCache();
  const retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  const int64_t start = NowMicros();
  ASSERT_TRUE(engine
                  .CollateData("SELECT snap_id FROM SnapIds",
                               "SELECT SUM(k) AS s FROM t", "Sums")
                  .ok());
  const int64_t wall = NowMicros() - start;
  const retro::MetricsRegistry::Snapshot delta =
      registry.TakeSnapshot().DeltaFrom(before);

  const RqlRunStats& stats = engine.last_run_stats();
  ASSERT_EQ(stats.iterations.size(), static_cast<size_t>(kSnapshots));
  EXPECT_GE(stats.PagelogPages(), 8 * 20);
  EXPECT_LE(stats.TotalUs(), wall);
  EXPECT_EQ(delta.counter("rql.total_us"), stats.TotalUs());
}

TEST_F(RqlLoggedInTest, RerunReplacesResultTable) {
  for (int round = 0; round < 2; ++round) {
    Status s = engine_->CollateData(
        "SELECT snap_id FROM SnapIds",
        "SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn",
        "Result");
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  sql::QueryResult r = Q(meta_.get(), "SELECT COUNT(*) FROM Result");
  EXPECT_EQ(r.rows[0][0].integer(), 8);  // not doubled
}

TEST_F(RqlLoggedInTest, CollateThenSqlEqualsAggregateTable) {
  // The paper's §5.3 equivalence: CollateData + SQL == AggregateDataInTable.
  ASSERT_TRUE(engine_
                  ->AggregateDataInTable(
                      "SELECT snap_id FROM SnapIds",
                      "SELECT l_country, COUNT(*) AS c FROM LoggedIn "
                      "GROUP BY l_country",
                      "AggResult", "(c,max)")
                  .ok());
  ASSERT_TRUE(engine_
                  ->CollateData(
                      "SELECT snap_id FROM SnapIds",
                      "SELECT l_country, COUNT(*) AS c FROM LoggedIn "
                      "GROUP BY l_country",
                      "CollateResult")
                  .ok());
  sql::QueryResult via_agg = Q(
      meta_.get(), "SELECT l_country, c FROM AggResult ORDER BY l_country");
  sql::QueryResult via_collate = Q(
      meta_.get(),
      "SELECT l_country, MAX(c) AS c FROM CollateResult "
      "GROUP BY l_country ORDER BY l_country");
  ASSERT_EQ(via_agg.rows.size(), via_collate.rows.size());
  for (size_t i = 0; i < via_agg.rows.size(); ++i) {
    EXPECT_EQ(via_agg.rows[i][0].text(), via_collate.rows[i][0].text());
    EXPECT_EQ(via_agg.rows[i][1].integer(), via_collate.rows[i][1].integer());
  }
}

// --- observability: the per-run trace --------------------------------------

TEST_F(RqlLoggedInTest, TraceRecordsRunAndIterationPhases) {
  engine_->mutable_options()->trace = true;
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT DISTINCT l_userid FROM LoggedIn",
                                "Result")
                  .ok());
  const RqlTrace& trace = engine_->last_run_trace();
  std::vector<RqlTraceEvent> events = trace.Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(trace.dropped(), 0);

  // Envelope: one run_begin first (3 snapshots, 1 worker), one run_end
  // last (3 iterations, ok), monotonic timestamps in between.
  EXPECT_EQ(events.front().type, RqlTraceEventType::kRunBegin);
  EXPECT_EQ(events.front().args[0], 3);
  EXPECT_EQ(events.front().args[1], 1);
  EXPECT_EQ(events.back().type, RqlTraceEventType::kRunEnd);
  EXPECT_EQ(events.back().args[0], 3);
  EXPECT_EQ(events.back().args[3], 1);
  int64_t last_t = 0;
  for (const RqlTraceEvent& ev : events) {
    EXPECT_GE(ev.t_us, last_t);
    last_t = ev.t_us;
  }

  // Phase attribution: each iteration_end mirrors the matching
  // RqlIterationStats fields exactly (the Fig. 8 components).
  const RqlRunStats& stats = engine_->last_run_stats();
  size_t seen = 0;
  for (const RqlTraceEvent& ev : events) {
    if (ev.type != RqlTraceEventType::kIterationEnd) continue;
    ASSERT_LT(seen, stats.iterations.size());
    const RqlIterationStats& it = stats.iterations[seen];
    EXPECT_EQ(ev.snapshot, it.snapshot);
    EXPECT_EQ(ev.args[0], 0);  // retired slot
    EXPECT_EQ(ev.args[1], it.spt_build_us);
    EXPECT_EQ(ev.args[2], it.query_eval_us);
    EXPECT_EQ(ev.args[3], it.index_create_us);
    EXPECT_EQ(ev.args[4], it.udf_us);
    EXPECT_EQ(ev.args[5], it.qq_rows);
    ++seen;
  }
  EXPECT_EQ(seen, 3u);
}

TEST_F(RqlLoggedInTest, TraceCapacityBoundsMemoryDropOldest) {
  engine_->mutable_options()->trace = true;
  engine_->mutable_options()->trace_capacity = 4;
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT DISTINCT l_userid FROM LoggedIn",
                                "Result")
                  .ok());
  const RqlTrace& trace = engine_->last_run_trace();
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.Events().size(), 4u);
  EXPECT_GT(trace.dropped(), 0);
  EXPECT_EQ(trace.emitted(), trace.dropped() + 4);
  // Drop-oldest: the newest event (run_end) is always retained.
  EXPECT_EQ(trace.Events().back().type, RqlTraceEventType::kRunEnd);
}

TEST_F(RqlLoggedInTest, TraceOffHasZeroDrift) {
  // Traced reference run. Both runs start on an empty snapshot cache.
  engine_->mutable_options()->trace = true;
  data_->store()->ClearSnapshotCache();
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT DISTINCT l_userid FROM LoggedIn",
                                "Traced")
                  .ok());
  RqlRunStats traced = engine_->last_run_stats();
  EXPECT_GT(engine_->last_run_trace().emitted(), 0);

  // Identical run with tracing off: no events, and every non-time
  // counter — and the result table — is identical.
  engine_->mutable_options()->trace = false;
  data_->store()->ClearSnapshotCache();
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT DISTINCT l_userid FROM LoggedIn",
                                "Plain")
                  .ok());
  EXPECT_EQ(engine_->last_run_trace().emitted(), 0);
  const RqlRunStats& plain = engine_->last_run_stats();
  ASSERT_EQ(plain.iterations.size(), traced.iterations.size());
  for (size_t i = 0; i < plain.iterations.size(); ++i) {
    EXPECT_EQ(plain.iterations[i].qq_rows, traced.iterations[i].qq_rows);
    EXPECT_EQ(plain.iterations[i].db_pages, traced.iterations[i].db_pages);
    EXPECT_EQ(plain.iterations[i].pagelog_pages,
              traced.iterations[i].pagelog_pages);
    EXPECT_EQ(plain.iterations[i].result_inserts,
              traced.iterations[i].result_inserts);
  }
  sql::QueryResult a =
      Q(meta_.get(), "SELECT l_userid FROM Traced ORDER BY l_userid");
  sql::QueryResult b =
      Q(meta_.get(), "SELECT l_userid FROM Plain ORDER BY l_userid");
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(sql::EncodeRow(a.rows[i]), sql::EncodeRow(b.rows[i]));
  }
}

TEST_F(RqlLoggedInTest, UdfFormEmitsTrace) {
  engine_->mutable_options()->trace = true;
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  ASSERT_TRUE(meta_
                  ->Exec("SELECT CollateData(snap_id, "
                         "'SELECT DISTINCT l_userid FROM LoggedIn', "
                         "'Result') FROM SnapIds")
                  .ok());
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
  std::vector<RqlTraceEvent> events = engine_->last_run_trace().Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, RqlTraceEventType::kRunBegin);
  EXPECT_EQ(events.back().type, RqlTraceEventType::kRunEnd);
  EXPECT_EQ(events.back().args[0], 3);  // three UDF-driven iterations
}

TEST_F(RqlLoggedInTest, UdfFormFailedRunIsDiscarded) {
  // One UK user is logged in at snapshots 1 and 2 and two at snapshot 3,
  // so AggregateDataInVariable's single-row contract breaks on the third
  // iteration. Like the programmatic form, the failed run is discarded:
  // no partial aggregate, no result table, and a failed kRunEnd.
  engine_->mutable_options()->trace = true;
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  Status s = meta_->Exec(
      "SELECT AggregateDataInVariable(snap_id, "
      "'SELECT 1 FROM LoggedIn WHERE l_country = ''UK''', 'Result', "
      "'sum') FROM SnapIds");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(engine_->FinishUdfRuns().ok());
  EXPECT_EQ(meta_->catalog()->data().FindTable("Result"), nullptr);
  std::vector<RqlTraceEvent> events = engine_->last_run_trace().Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, RqlTraceEventType::kRunEnd);
  EXPECT_EQ(events.back().args[3], 0);  // ok
}

TEST_F(RqlLoggedInTest, RunsRestoreEngineAndStoreState) {
  // However a run ends, it disarms everything it armed on the data
  // database.
  sql::SharedScanCache run_cache({.max_bytes = 0});
  std::atomic<bool> cancel{false};
  RqlOptions* opts = engine_->mutable_options();
  opts->shared_scan_cache = &run_cache;
  opts->profile = RqlProfile::kFast;
  opts->archive_read_retries = 2;
  opts->cancel = &cancel;
  // Qq-side hooks: fail_on(snap, n) fails Qq on snapshot n, cancel_on
  // raises the cancel flag there (the next iteration head aborts).
  data_->RegisterFunction(
      "fail_on", 2, 2, [](const std::vector<Value>& a) -> Result<Value> {
        if (a[0].AsInt() == a[1].AsInt()) {
          return Status::IoError("injected Qq failure");
        }
        return a[0];
      });
  data_->RegisterFunction(
      "cancel_on", 2, 2,
      [&cancel](const std::vector<Value>& a) -> Result<Value> {
        if (a[0].AsInt() == a[1].AsInt()) cancel.store(true);
        return a[0];
      });
  auto expect_restored = [&](const char* outcome) {
    EXPECT_EQ(data_->scan_cache(), nullptr) << outcome;
    EXPECT_FALSE(data_->batch_execution()) << outcome;
    EXPECT_EQ(data_->snapshot_set(), nullptr) << outcome;
    EXPECT_EQ(data_->archive_read_retries(), 0) << outcome;
  };
  const std::string qs = "SELECT snap_id FROM SnapIds";

  ASSERT_TRUE(
      engine_->CollateData(qs, "SELECT l_userid FROM LoggedIn", "Ok").ok());
  expect_restored("success");

  EXPECT_FALSE(engine_
                   ->CollateData(qs,
                                 "SELECT fail_on(current_snapshot(), 3) "
                                 "FROM LoggedIn",
                                 "Failed")
                   .ok());
  expect_restored("Qq failure");

  Status cancelled = engine_->CollateData(
      qs, "SELECT cancel_on(current_snapshot(), 2) FROM LoggedIn",
      "Cancelled");
  EXPECT_EQ(cancelled.code(), StatusCode::kAborted) << cancelled.ToString();
  expect_restored("cancel");
  cancel.store(false);

  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  ASSERT_TRUE(meta_
                  ->Exec("SELECT CollateData(snap_id, "
                         "'SELECT l_userid FROM LoggedIn', 'UdfOk') "
                         "FROM SnapIds")
                  .ok());
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
  expect_restored("UDF form");

  EXPECT_FALSE(meta_
                   ->Exec("SELECT CollateData(snap_id, "
                          "'SELECT fail_on(current_snapshot(), 3) "
                          "FROM LoggedIn', 'UdfFailed') FROM SnapIds")
                   .ok());
  EXPECT_FALSE(engine_->FinishUdfRuns().ok());
  expect_restored("failed UDF form");
  EXPECT_EQ(meta_->catalog()->data().FindTable("UdfFailed"), nullptr);
}

// --- runs and client metadata transactions ---------------------------------

TEST_F(RqlLoggedInTest, RunInsideOpenMetaTransactionIsRejected) {
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const std::string qq = "SELECT l_userid FROM LoggedIn";
  ASSERT_TRUE(engine_->CollateData(qs, qq, "Out").ok());
  const sql::QueryResult before = Q(meta_.get(), "SELECT * FROM Out");
  ASSERT_EQ(before.rows.size(), 8u);  // 3 + 2 + 3 logins
  ASSERT_TRUE(engine_->RegisterUdfs().ok());

  // A client left BEGIN open: both run forms refuse to start, before
  // their DROP could join the client's transaction.
  Ok(meta_.get(), "BEGIN");
  Status s = engine_->CollateData(qs, qq, "Out");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(data_->current_snapshot(), retro::kNoSnapshot);
  s = meta_->Exec("SELECT CollateData(snap_id, '" + qq +
                  "', 'Out') FROM SnapIds");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_TRUE(engine_->FinishUdfRuns().ok());  // no run started
  EXPECT_EQ(data_->current_snapshot(), retro::kNoSnapshot);
  Ok(meta_.get(), "COMMIT");

  // The client's COMMIT kept the old result table.
  const sql::QueryResult after = Q(meta_.get(), "SELECT * FROM Out");
  ASSERT_EQ(after.rows.size(), before.rows.size());
  for (size_t i = 0; i < after.rows.size(); ++i) {
    EXPECT_EQ(sql::EncodeRow(after.rows[i]), sql::EncodeRow(before.rows[i]));
  }
  ASSERT_TRUE(engine_->CollateData(qs, qq, "Out").ok());
}

// --- keeping the last run's result table ------------------------------------

/// "page.slot:record" per heap row of `table` in scan order (pages named
/// by their rank), then every index key with the rid it points at.
std::vector<std::string> HeapDump(sql::Database* meta,
                                  const std::string& table) {
  std::vector<std::string> out;
  const sql::CatalogData& catalog = meta->catalog()->data();
  const sql::TableInfo* info = catalog.FindTable(table);
  if (info == nullptr) return out;
  std::map<storage::PageId, size_t> rank;
  auto rid_name = [&](sql::Rid rid) {
    auto page = rank.try_emplace(sql::RidPage(rid), rank.size());
    return std::to_string(page.first->second) + "." +
           std::to_string(sql::RidSlot(rid));
  };
  for (auto it = sql::HeapTable::Scan(meta->store(), info->root); it.Valid();
       it.Next()) {
    out.push_back(rid_name(it.rid()) + ":" + std::string(it.record()));
  }
  for (const sql::IndexInfo* index : catalog.TableIndexes(table)) {
    auto keys = sql::BTree::SeekFirst(meta->store(), index->root);
    if (!keys.ok()) continue;
    for (; keys->Valid(); keys->Next()) {
      Row key = keys->key();
      sql::Rid rid = static_cast<sql::Rid>(key.back().integer());
      key.pop_back();
      out.push_back("key:" + sql::EncodeRow(key) + "@" + rid_name(rid));
    }
  }
  return out;
}

class RqlResultReuseTest : public RqlLoggedInTest {
 protected:
  static constexpr char kQs[] = "SELECT snap_id FROM SnapIds";
  static constexpr char kQq[] =
      "SELECT l_country, COUNT(*) AS n, MIN(l_time) AS t FROM LoggedIn "
      "GROUP BY l_country";

  void SetUp() override {
    RqlLoggedInTest::SetUp();
    engine_->mutable_options()->memo = memo_.get();
    // The oracle engine writes its tables into a metadata database of its
    // own, so computing an oracle never writes the one under test.
    auto oracle_meta = sql::Database::Open(&env_, "oracle_meta");
    ASSERT_TRUE(oracle_meta.ok());
    oracle_meta_ = std::move(*oracle_meta);
    oracle_ = std::make_unique<RqlEngine>(data_.get(), oracle_meta_.get());
    ASSERT_TRUE(oracle_->EnsureSnapIds().ok());
    for (const Row& row : Q(meta_.get(), "SELECT * FROM SnapIds").rows) {
      ASSERT_TRUE(oracle_meta_->AppendRow("SnapIds", row).ok());
    }
  }

  Status Run(const std::string& qs, const std::string& table,
             const std::string& pairs = "(n,max):(t,min)") {
    return engine_->AggregateDataInTable(qs, kQq, table, pairs);
  }

  /// The table of a paper-faithful, memo-less run under the strategy the
  /// engine under test has.
  std::vector<std::string> Oracle(const std::string& qs,
                                  const std::string& pairs =
                                      "(n,max):(t,min)") {
    oracle_->mutable_options()->agg_table_strategy =
        engine_->options().agg_table_strategy;
    const std::string table = "Oracle" + std::to_string(++oracles_);
    EXPECT_TRUE(oracle_->AggregateDataInTable(qs, kQq, table, pairs).ok());
    return HeapDump(oracle_meta_.get(), table);
  }

  bool Reused() const { return engine_->last_run_stats().result_reused; }

  std::unique_ptr<retro::MemoTable> memo_ =
      std::make_unique<retro::MemoTable>();
  std::unique_ptr<sql::Database> oracle_meta_;
  std::unique_ptr<RqlEngine> oracle_;
  int oracles_ = 0;
};

TEST_F(RqlResultReuseTest, IdenticalRerunKeepsTheTable) {
  for (RqlProfile profile : {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
    engine_->mutable_options()->profile = profile;
    const std::vector<std::string> oracle = Oracle(kQs);
    ASSERT_TRUE(Run(kQs, "Out").ok());
    EXPECT_FALSE(Reused());
    EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);

    const storage::PageStore* pages = meta_->store()->page_store();
    const uint64_t mutations = pages->mutations();
    ASSERT_TRUE(Run(kQs, "Out").ok());
    EXPECT_TRUE(Reused());
    EXPECT_EQ(pages->mutations(), mutations);  // nothing written
    EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);
    const RqlRunStats& stats = engine_->last_run_stats();
    ASSERT_EQ(stats.iterations.size(), 3u);
    for (const RqlIterationStats& it : stats.iterations) {
      EXPECT_EQ(it.memo_hits, 1);
      EXPECT_EQ(it.udf_us, 0);
      EXPECT_EQ(it.result_probes + it.result_inserts + it.result_updates, 0);
    }
    // A third run keeps it too: keeping writes nothing the check sees.
    ASSERT_TRUE(Run(kQs, "Out").ok());
    EXPECT_TRUE(Reused());
    EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);
  }
}

TEST_F(RqlResultReuseTest, AnyDifferenceRefolds) {
  const std::string subset = "SELECT snap_id FROM SnapIds WHERE snap_id < 3";
  const std::string reversed = std::string(kQs) + " ORDER BY snap_id DESC";
  const std::vector<std::string> oracle = Oracle(kQs);
  struct Case {
    const char* what;
    std::function<void()> change;  // applied after a kept table
    std::string qs;
    std::string table;
    std::string pairs;
  };
  const std::vector<Case> cases = {
      {"fewer snapshots", [] {}, subset, "Out", "(n,max):(t,min)"},
      {"reversed snapshots", [] {}, reversed, "Out", "(n,max):(t,min)"},
      {"other pairs", [] {}, kQs, "Out", "(n,sum):(t,min)"},
      {"other table", [] {}, kQs, "Out2", "(n,max):(t,min)"},
      {"metadata write",
       [this] { Ok(meta_.get(), "DELETE FROM Out WHERE l_country = 'UK'"); },
       kQs, "Out", "(n,max):(t,min)"},
      {"other profile",
       [this] { engine_->mutable_options()->profile = RqlProfile::kFast; },
       kQs, "Out", "(n,max):(t,min)"},
      {"other strategy",
       [this] {
         engine_->mutable_options()->agg_table_strategy =
             AggTableStrategy::kSortMerge;
       },
       kQs, "Out", "(n,max):(t,min)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    engine_->mutable_options()->profile = RqlProfile::kPaperFaithful;
    engine_->mutable_options()->agg_table_strategy =
        AggTableStrategy::kIndexProbe;
    ASSERT_TRUE(Run(kQs, "Out").ok());
    ASSERT_TRUE(Run(kQs, "Out").ok());
    ASSERT_TRUE(Reused());
    c.change();
    const std::vector<std::string> expected = Oracle(c.qs, c.pairs);
    ASSERT_TRUE(Run(c.qs, c.table, c.pairs).ok());
    EXPECT_FALSE(Reused());
    EXPECT_EQ(HeapDump(meta_.get(), c.table), expected);
  }

  // Snapshot 3 shares LoggedIn's page with the current state. The owner's
  // update archives it, but what snapshot 3 reads is unchanged, and so is
  // its token: the rerun keeps its table, and no iteration misses.
  engine_->mutable_options()->profile = RqlProfile::kPaperFaithful;
  engine_->mutable_options()->agg_table_strategy =
      AggTableStrategy::kIndexProbe;
  ASSERT_TRUE(Run(kQs, "Out").ok());
  ASSERT_TRUE(Run(kQs, "Out").ok());
  ASSERT_TRUE(Reused());
  Ok(data_.get(),
     "UPDATE LoggedIn SET l_country = 'FR' WHERE l_userid = 'UserD'");
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_TRUE(Reused());
  EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);
  for (const RqlIterationStats& it : engine_->last_run_stats().iterations) {
    EXPECT_EQ(it.memo_misses, 0);
  }
  // The snapshots themselves never changed.
  EXPECT_EQ(Oracle(kQs), oracle);
}

TEST_F(RqlResultReuseTest, IdenticalReadSetsKeepTheTable) {
  // Snapshots 4 and 5 change nothing, so their read sets equal snapshot
  // 3's: a kept run accepts them from the cursor's delta alone, and
  // snapshot 3 after looking up only what differs from snapshot 2's. The
  // kept table must still be the oracle's, before and after the owner's
  // update archives the pages those snapshots share with the current
  // state.
  for (const char* ts : {"2008-11-12 23:59:59", "2008-11-13 23:59:59"}) {
    Ok(data_.get(), "BEGIN");
    auto snap = engine_->CommitWithSnapshot(ts);
    ASSERT_TRUE(snap.ok());
    for (const Row& row : Q(meta_.get(), "SELECT * FROM SnapIds WHERE "
                                         "snap_id = " +
                                             std::to_string(*snap))
                              .rows) {
      ASSERT_TRUE(oracle_meta_->AppendRow("SnapIds", row).ok());
    }
  }
  const std::string qs = "SELECT snap_id FROM SnapIds WHERE snap_id >= 2";
  for (RqlProfile profile : {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
    SCOPED_TRACE(static_cast<int>(profile));
    engine_->mutable_options()->profile = profile;
    const std::vector<std::string> oracle = Oracle(qs);
    ASSERT_TRUE(Run(qs, "Out").ok());
    EXPECT_FALSE(Reused());
    ASSERT_TRUE(Run(qs, "Out").ok());
    EXPECT_TRUE(Reused());
    EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);
    ASSERT_EQ(engine_->last_run_stats().iterations.size(), 4u);
    for (const RqlIterationStats& it : engine_->last_run_stats().iterations) {
      EXPECT_EQ(it.memo_hits, 1);
    }
  }
  Ok(data_.get(),
     "UPDATE LoggedIn SET l_country = 'FR' WHERE l_userid = 'UserD'");
  const std::vector<std::string> oracle = Oracle(qs);
  ASSERT_TRUE(Run(qs, "Out").ok());
  EXPECT_TRUE(Reused());
  EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);
}

TEST_F(RqlResultReuseTest, CancelDuringValidationDropsTheTable) {
  std::atomic<bool> cancel{false};
  engine_->mutable_options()->cancel = &cancel;
  // Qs raises the flag, so the first poll after it is the validation's.
  meta_->RegisterFunction(
      "raise_cancel", 1, 1,
      [&cancel](const std::vector<Value>& a) -> Result<Value> {
        cancel.store(true);
        return a[0];
      });
  const std::vector<std::string> oracle = Oracle(kQs);
  ASSERT_TRUE(Run(kQs, "Out").ok());
  ASSERT_TRUE(Run(kQs, "Out").ok());
  ASSERT_TRUE(Reused());

  Status s = Run("SELECT raise_cancel(snap_id) FROM SnapIds", "Out");
  EXPECT_EQ(s.code(), StatusCode::kAborted) << s.ToString();
  EXPECT_EQ(meta_->catalog()->data().FindTable("Out"), nullptr);
  cancel.store(false);
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_FALSE(Reused());
  EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);
}

TEST_F(RqlResultReuseTest, RunsWithoutAMemoAlwaysFold) {
  engine_->mutable_options()->memo = nullptr;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Run(kQs, "Out").ok());
    EXPECT_FALSE(engine_->last_run_stats().qs_reused);
  }
  EXPECT_FALSE(Reused());
  // Nor does a memoized run keep a table a memo-less run wrote.
  engine_->mutable_options()->memo = memo_.get();
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_FALSE(Reused());
}

// --- Qs reuse ---------------------------------------------------------------

class RqlQsReuseTest : public RqlResultReuseTest {
 protected:
  bool QsReused() const { return engine_->last_run_stats().qs_reused; }

  /// The snapshots the last run iterated, in order.
  std::vector<retro::SnapshotId> Iterated() const {
    std::vector<retro::SnapshotId> out;
    for (const RqlIterationStats& it : engine_->last_run_stats().iterations) {
      out.push_back(it.snapshot);
    }
    return out;
  }

  /// Runs `qs` into Out until a run reuses the Qs list (the second rerun
  /// at most: the first run's fold wrote the metadata database).
  void RunUntilQsReused(const std::string& qs) {
    for (int i = 0; i < 3 && !QsReused(); ++i) ASSERT_TRUE(Run(qs, "Out").ok());
    ASSERT_TRUE(QsReused());
  }
};

TEST_F(RqlQsReuseTest, RerunWithTheSameQsReusesTheList) {
  const std::vector<std::string> oracle = Oracle(kQs);
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_FALSE(QsReused());
  // The fold wrote Out after Qs was evaluated: evaluated again.
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_FALSE(QsReused());
  EXPECT_TRUE(Reused());
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_TRUE(QsReused());
  EXPECT_TRUE(Reused());
  EXPECT_EQ(Iterated(), (std::vector<retro::SnapshotId>{1, 2, 3}));
  EXPECT_EQ(HeapDump(meta_.get(), "Out"), oracle);
  // Another Qs text is evaluated, however equal its answer.
  const std::string other = std::string(kQs) + " ORDER BY snap_id";
  ASSERT_TRUE(Run(other, "Out").ok());
  EXPECT_FALSE(QsReused());
}

TEST_F(RqlQsReuseTest, DeclaredSnapshotIsSeenByTheNextRun) {
  RunUntilQsReused(kQs);
  Ok(data_.get(), "BEGIN");
  auto snap = engine_->CommitWithSnapshot("2008-11-12 23:59:59");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_FALSE(QsReused());
  EXPECT_EQ(Iterated(), (std::vector<retro::SnapshotId>{1, 2, 3, *snap}));
}

TEST_F(RqlQsReuseTest, WriteToATableQsJoinsForcesEvaluation) {
  Ok(meta_.get(), "CREATE TABLE Pick (s INTEGER)");
  Ok(meta_.get(), "INSERT INTO Pick VALUES (1), (3)");
  const std::string qs =
      "SELECT snap_id FROM SnapIds, Pick WHERE snap_id = s ORDER BY snap_id";
  RunUntilQsReused(qs);
  EXPECT_EQ(Iterated(), (std::vector<retro::SnapshotId>{1, 3}));
  Ok(meta_.get(), "INSERT INTO Pick VALUES (2)");
  ASSERT_TRUE(Run(qs, "Out").ok());
  EXPECT_FALSE(QsReused());
  EXPECT_EQ(Iterated(), (std::vector<retro::SnapshotId>{1, 2, 3}));
}

TEST_F(RqlQsReuseTest, RunIntoSnapIdsForcesEvaluation) {
  RunUntilQsReused(kQs);
  // Every snapshot holds UserB: SnapIds becomes three rows of snapshot 2.
  ASSERT_TRUE(engine_
                  ->CollateData(kQs,
                                "SELECT 2 AS snap_id FROM LoggedIn "
                                "WHERE l_userid = 'UserB'",
                                "SnapIds")
                  .ok());
  ASSERT_TRUE(Run(kQs, "Out").ok());
  EXPECT_FALSE(QsReused());
  EXPECT_EQ(Iterated(), (std::vector<retro::SnapshotId>{2, 2, 2}));
}

TEST_F(RqlQsReuseTest, QsCallingARegisteredFunctionIsNeverReused) {
  int calls = 0;
  meta_->RegisterFunction("tick", 1, 1,
                          [&calls](const std::vector<Value>& a)
                              -> Result<Value> {
                            ++calls;
                            return a[0];
                          });
  const std::string ticking = "SELECT tick(snap_id) FROM SnapIds";
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(Run(ticking, "Out").ok());
    EXPECT_FALSE(QsReused());
    EXPECT_EQ(calls, 3 * i);
  }
  // A mechanism UDF, which folds into a table of its own, likewise.
  ASSERT_TRUE(engine_->RegisterUdfs().ok());
  const std::string folding =
      "SELECT snap_id FROM SnapIds WHERE AggregateDataInVariable(snap_id, "
      "'SELECT COUNT(*) FROM LoggedIn', 'Side', 'sum') >= 0";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Run(folding, "Out").ok());
    EXPECT_FALSE(QsReused());
  }
  ASSERT_TRUE(engine_->FinishUdfRuns().ok());
}

// --- current_snapshot() literal awareness ----------------------------------

TEST_F(RqlLoggedInTest, LiteralCurrentSnapshotSurvivesCollate) {
  // The literal is plain text being SELECTed, not a call: every output
  // row must carry it verbatim, at any worker count.
  const char* qq =
      "SELECT l_userid, 'current_snapshot()' AS tag, "
      "current_snapshot() AS sid FROM LoggedIn WHERE l_userid = 'UserB'";
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds", qq, "Result")
                  .ok());
  sql::QueryResult r =
      Q(meta_.get(), "SELECT DISTINCT tag FROM Result");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].text(), "current_snapshot()");

  engine_->mutable_options()->parallel_workers = 3;
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds", qq, "Par")
                  .ok());
  sql::QueryResult p = Q(meta_.get(), "SELECT DISTINCT tag FROM Par");
  ASSERT_EQ(p.rows.size(), 1u);
  EXPECT_EQ(p.rows[0][0].text(), "current_snapshot()");
}

TEST(RqlCurrentSnapshotSkipTest, LiteralDoesNotDisableSkip) {
  // A history where `tagged` is untouched after snapshot 1: snapshots 2-4
  // are provably unchanged and replayable by the memo's delta fast path —
  // unless the probe misreads the quoted literal in Qq as a real
  // current_snapshot() call.
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  RqlEngine engine(data->get(), meta->get());
  ASSERT_TRUE(engine.EnsureSnapIds().ok());
  ASSERT_TRUE(
      (*data)->Exec("CREATE TABLE tagged (id INTEGER, tag TEXT)").ok());
  ASSERT_TRUE(
      (*data)
          ->Exec("INSERT INTO tagged VALUES (1, 'current_snapshot()')")
          .ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE churn (x INTEGER)").ok());
  ASSERT_TRUE(engine.CommitWithSnapshot("t1").ok());
  for (int s = 2; s <= 4; ++s) {
    ASSERT_TRUE((*data)
                    ->Exec("BEGIN; INSERT INTO churn VALUES (" +
                           std::to_string(s) + ")")
                    .ok());
    ASSERT_TRUE(engine.CommitWithSnapshot("t" + std::to_string(s)).ok());
  }
  auto memo = std::make_unique<retro::MemoTable>();
  engine.mutable_options()->memo = memo.get();

  const char* qq =
      "SELECT id FROM tagged WHERE tag = 'current_snapshot()'";
  ASSERT_TRUE(
      engine.CollateData("SELECT snap_id FROM SnapIds", qq, "Lit").ok());
  // The literal predicate matched in every snapshot...
  auto count = (*meta)->QueryScalar("SELECT COUNT(*) FROM Lit");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->integer(), 4);
  // ...and the unchanged iterations were replayed, not re-executed.
  EXPECT_GT(engine.last_run_stats().iterations_skipped, 0);

  // Contrast: a real call makes results snapshot-dependent, so the same
  // unchanged history must never take the fast path.
  ASSERT_TRUE(engine
                  .CollateData("SELECT snap_id FROM SnapIds",
                               "SELECT id, current_snapshot() AS sid "
                               "FROM tagged",
                               "Call")
                  .ok());
  EXPECT_EQ(engine.last_run_stats().iterations_skipped, 0);
}

TEST(RqlMemoAsOfTest, QqAsOfDoesNotBecomeTheDeltaOrigin) {
  // t's x is 1 at snapshots 1-3 and 2 at snapshots 4-5. The script's second
  // statement opens snapshot 4 through the run's cursor, so after
  // iteration 3 the cursor sits at 4 and the step to 5 drains only the
  // (empty) 4 -> 5 delta. That delta must not be checked against
  // snapshot 3's read set: replaying snapshot 3's rows at 5 would report
  // x = 1 where t holds 2.
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  RqlEngine engine(data->get(), meta->get());
  ASSERT_TRUE(engine.EnsureSnapIds().ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE t (x INTEGER)").ok());
  ASSERT_TRUE((*data)->Exec("INSERT INTO t VALUES (1)").ok());
  for (int s = 1; s <= 5; ++s) {
    if (s == 4) {
      ASSERT_TRUE((*data)->Exec("BEGIN; UPDATE t SET x = 2").ok());
    }
    ASSERT_TRUE(engine.CommitWithSnapshot("t" + std::to_string(s)).ok());
  }
  const char* qs = "SELECT snap_id FROM SnapIds WHERE snap_id IN (1, 3, 5)";
  const char* qq = "SELECT x FROM t; SELECT AS OF 4 x FROM t";
  auto dump = [&](const std::string& table) {
    auto rows = (*meta)->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out;
    if (rows.ok()) {
      for (const Row& row : rows->rows) {
        std::string line;
        for (const Value& v : row) line += v.ToString() + "|";
        out.push_back(line);
      }
    }
    return out;
  };
  for (RqlProfile profile : {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
    engine.mutable_options()->profile = profile;
    engine.mutable_options()->memo = nullptr;
    ASSERT_TRUE(engine.CollateData(qs, qq, "Plain").ok());
    auto memo = std::make_unique<retro::MemoTable>();
    engine.mutable_options()->memo = memo.get();
    ASSERT_TRUE(engine.CollateData(qs, qq, "Memo").ok());
    EXPECT_EQ(engine.last_run_stats().iterations_skipped, 0);
    EXPECT_EQ(dump("Memo"), dump("Plain"));
    engine.mutable_options()->memo = nullptr;
  }
}

TEST(RqlMemoCurrentSnapshotTest, WarmRunNeverReplaysAnotherSnapshotsRows) {
  // t and the catalog are untouched from snapshot 1 to 5 and archived
  // after 5, so snapshots 4 and 5 read identical bytes and record
  // identical read sets. Qq's rows still differ by snapshot: a warm run
  // that let snapshot 5 alias snapshot 4's entry would report sid 4 twice.
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  RqlEngine engine(data->get(), meta->get());
  ASSERT_TRUE(engine.EnsureSnapIds().ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE t (x INTEGER)").ok());
  ASSERT_TRUE((*data)->Exec("INSERT INTO t VALUES (1), (2), (3)").ok());
  for (int s = 1; s <= 5; ++s) {
    ASSERT_TRUE(engine.CommitWithSnapshot("t" + std::to_string(s)).ok());
  }
  ASSERT_TRUE((*data)->Exec("UPDATE t SET x = x + 10").ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE u (y INTEGER)").ok());

  const char* qs = "SELECT snap_id FROM SnapIds WHERE snap_id IN (4, 5)";
  const char* qq = "SELECT current_snapshot() AS sid, COUNT(*) AS n FROM t";
  auto dump = [&](const std::string& table) {
    auto rows = (*meta)->Query("SELECT sid, n FROM " + table);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out;
    if (rows.ok()) {
      for (const Row& row : rows->rows) {
        out.push_back(row[0].ToString() + "|" + row[1].ToString());
      }
    }
    return out;
  };
  const std::vector<std::string> expected = {"4|3", "5|3"};
  for (RqlProfile profile : {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
    engine.mutable_options()->profile = profile;
    engine.mutable_options()->memo = nullptr;
    ASSERT_TRUE(engine.CollateData(qs, qq, "Plain").ok());
    EXPECT_EQ(dump("Plain"), expected);
    auto memo = std::make_unique<retro::MemoTable>();
    engine.mutable_options()->memo = memo.get();
    ASSERT_TRUE(engine.CollateData(qs, qq, "Cold").ok());
    EXPECT_EQ(dump("Cold"), expected);
    EXPECT_EQ(memo->entry_count(), 2u);
    ASSERT_TRUE(engine.CollateData(qs, qq, "Warm").ok());
    EXPECT_EQ(dump("Warm"), expected);
    for (const RqlIterationStats& it : engine.last_run_stats().iterations) {
      EXPECT_EQ(it.memo_hits, 1) << it.snapshot;
    }
    engine.mutable_options()->memo = nullptr;
  }
}

/// Two engines on one store, each with its own metadata database and the
/// UDF form registered: engine A on the owning data handle, engine B on an
/// attached one. `t` holds one row whose x is 1 at snapshots 1 and 2 and
/// 2 at snapshot 3, so snapshots 1 and 2 read t's page from the Pagelog.
/// The files live behind a fault-injection env, transparent until armed.
class RqlTwoEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = sql::Database::Open(&env_, "data");
    auto meta_a = sql::Database::Open(&env_, "meta_a");
    auto meta_b = sql::Database::Open(&env_, "meta_b");
    ASSERT_TRUE(data.ok() && meta_a.ok() && meta_b.ok());
    data_ = std::move(*data);
    meta_a_ = std::move(*meta_a);
    meta_b_ = std::move(*meta_b);
    a_ = std::make_unique<RqlEngine>(data_.get(), meta_a_.get());
    ASSERT_TRUE(a_->EnsureSnapIds().ok());
    Ok(data_.get(), "CREATE TABLE t (x INTEGER)");
    Ok(data_.get(), "INSERT INTO t VALUES (1)");
    ASSERT_TRUE(a_->CommitWithSnapshot("t1").ok());
    ASSERT_TRUE(a_->CommitWithSnapshot("t2").ok());
    Ok(data_.get(), "BEGIN; UPDATE t SET x = 2");
    ASSERT_TRUE(a_->CommitWithSnapshot("t3").ok());

    auto attached = sql::Database::Attach(data_->store());
    ASSERT_TRUE(attached.ok());
    data_b_ = std::move(*attached);
    b_ = std::make_unique<RqlEngine>(data_b_.get(), meta_b_.get());
    ASSERT_TRUE(b_->EnsureSnapIds().ok());
    Ok(meta_b_.get(), "INSERT INTO SnapIds VALUES (1, 't1', ''), "
                      "(2, 't2', ''), (3, 't3', '')");
    // One memo per engine, so neither replays the other's iterations.
    a_->mutable_options()->memo = memo_a_.get();
    b_->mutable_options()->memo = memo_b_.get();
    for (RqlEngine* e : {a_.get(), b_.get()}) {
      ASSERT_TRUE(e->RegisterUdfs().ok());
    }
  }

  static void Ok(sql::Database* db, const std::string& sql) {
    Status s = db->Exec(sql);
    ASSERT_TRUE(s.ok()) << sql << ": " << s.ToString();
  }

  /// Runs one batch of UDF-form CollateData iterations over the snapshots
  /// `where` selects; the engine's run stays open until FinishUdfRuns.
  static Status Iterate(sql::Database* meta, const std::string& table,
                        const std::string& where) {
    return meta->Exec("SELECT CollateData(snap_id, 'SELECT x FROM t', '" +
                      table + "') FROM SnapIds WHERE " + where);
  }

  static std::vector<int64_t> Xs(sql::Database* meta,
                                 const std::string& table) {
    auto rows = meta->Query("SELECT x FROM " + table);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<int64_t> out;
    if (rows.ok()) {
      for (const Row& row : rows->rows) out.push_back(row[0].integer());
    }
    return out;
  }

  storage::InMemoryEnv base_env_;
  storage::FaultInjectionEnv env_{&base_env_};
  std::unique_ptr<sql::Database> data_, data_b_, meta_a_, meta_b_;
  std::unique_ptr<retro::MemoTable> memo_a_ =
      std::make_unique<retro::MemoTable>();
  std::unique_ptr<retro::MemoTable> memo_b_ =
      std::make_unique<retro::MemoTable>();
  std::unique_ptr<RqlEngine> a_, b_;
};

TEST_F(RqlTwoEngineTest, OtherEnginesRunDoesNotEndOpenRun) {
  // A's UDF-form run is open when B runs a whole mechanism on the same
  // store. B's run ending must leave A's snapshot set alone.
  ASSERT_TRUE(Iterate(meta_a_.get(), "RA", "snap_id = 1").ok());
  ASSERT_TRUE(b_->CollateData("SELECT snap_id FROM SnapIds",
                              "SELECT x FROM t", "RB")
                  .ok());
  Status s = Iterate(meta_a_.get(), "RA", "snap_id >= 2");
  EXPECT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(a_->FinishUdfRuns().ok());
  EXPECT_EQ(Xs(meta_a_.get(), "RA"), (std::vector<int64_t>{1, 1, 2}));
  EXPECT_EQ(Xs(meta_b_.get(), "RB"), (std::vector<int64_t>{1, 1, 2}));
}

TEST_F(RqlTwoEngineTest, InterleavedRunDoesNotSkipOnOtherRunsDelta) {
  // A executes snapshot 1; B's open run then walks 1..3; A's next step is
  // snapshot 3. A's delta must be measured from A's own predecessor (1 ->
  // 3, which rewrote t), not from wherever B left a cursor (3 -> 3, empty),
  // or A would replay x = 1 at snapshot 3.
  ASSERT_TRUE(Iterate(meta_a_.get(), "RA", "snap_id = 1").ok());
  ASSERT_TRUE(Iterate(meta_b_.get(), "RB", "snap_id >= 1").ok());
  ASSERT_TRUE(Iterate(meta_a_.get(), "RA", "snap_id = 3").ok());
  EXPECT_EQ(a_->last_run_stats().iterations_skipped, 0);
  ASSERT_TRUE(a_->FinishUdfRuns().ok());
  ASSERT_TRUE(b_->FinishUdfRuns().ok());
  EXPECT_EQ(Xs(meta_a_.get(), "RA"), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(Xs(meta_b_.get(), "RB"), (std::vector<int64_t>{1, 1, 2}));
}

TEST_F(RqlTwoEngineTest, UdfStatesOfOneRunKeepTheirOwnDeltas) {
  // Two mechanisms in one driving SELECT share the run's snapshot set:
  // per row, the first call moves the cursor and the second finds it
  // already there. The second state's delta must still span its own step
  // (2 -> 3 rewrote t), or it would replay its x = 1 row at snapshot 3.
  ASSERT_TRUE(meta_a_
                  ->Exec("SELECT CollateData(snap_id, 'SELECT x FROM t', "
                         "'T1'), CollateData(snap_id, 'SELECT x * 10 AS x "
                         "FROM t', 'T2') FROM SnapIds")
                  .ok());
  ASSERT_TRUE(a_->FinishUdfRuns().ok());
  EXPECT_EQ(Xs(meta_a_.get(), "T1"), (std::vector<int64_t>{1, 1, 2}));
  EXPECT_EQ(Xs(meta_a_.get(), "T2"), (std::vector<int64_t>{10, 10, 20}));
}


TEST_F(RqlTwoEngineTest, RunLeavesOtherEnginesCachedPagesAlone) {
  // A run never clears the store's snapshot cache: B's pages survive A's
  // run, so B's rerun reads nothing from the Pagelog.
  a_->mutable_options()->memo = nullptr;
  b_->mutable_options()->memo = nullptr;
  const std::string qs = "SELECT snap_id FROM SnapIds";
  auto pagelog_pages = [](const RqlEngine& e) {
    int64_t pages = 0;
    for (const auto& it : e.last_run_stats().iterations) {
      pages += it.pagelog_pages;
    }
    return pages;
  };
  ASSERT_TRUE(b_->CollateData(qs, "SELECT x FROM t", "RB").ok());
  EXPECT_GT(pagelog_pages(*b_), 0);
  // A reads only snapshot 3, whose pages are the current state's.
  ASSERT_TRUE(a_->CollateData("SELECT snap_id FROM SnapIds WHERE "
                              "snap_id = 3",
                              "SELECT x FROM t", "RA")
                  .ok());
  ASSERT_TRUE(b_->CollateData(qs, "SELECT x FROM t", "RB").ok());
  EXPECT_EQ(pagelog_pages(*b_), 0);
  EXPECT_EQ(Xs(meta_b_.get(), "RB"), (std::vector<int64_t>{1, 1, 2}));
}

TEST_F(RqlTwoEngineTest, ReadRetryBudgetBelongsToTheRun) {
  // A's retry budget holds for all of A's run, even when B (budget 0)
  // runs to completion on the same store while A is mid-run.
  a_->mutable_options()->memo = nullptr;
  b_->mutable_options()->memo = nullptr;
  a_->mutable_options()->archive_read_retries = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool released = false;
  // hold(x) blocks A's first Qq row until the test releases it.
  data_->RegisterFunction(
      "hold", 1, 1, [&](const std::vector<Value>& a) -> Result<Value> {
        std::unique_lock<std::mutex> lock(mu);
        if (!held) {
          held = true;
          cv.notify_all();
          cv.wait(lock, [&] { return released; });
        }
        return a[0];
      });
  Status a_status;
  std::thread a_run([&] {
    a_status = a_->CollateData("SELECT snap_id FROM SnapIds",
                               "SELECT hold(x) AS x FROM t", "RA");
    // A run that failed before reaching hold() must not hang the test.
    std::lock_guard<std::mutex> lock(mu);
    held = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return held; });
  }
  // EXPECT, not ASSERT: A's thread must be released and joined either way.
  EXPECT_TRUE(b_->CollateData("SELECT snap_id FROM SnapIds",
                              "SELECT x FROM t", "RB")
                  .ok());
  // A's next archive read fails once, and must be retried.
  data_->store()->ClearSnapshotCache();
  env_.Arm({.op = storage::FaultOp::kRead,
            .kind = storage::FaultKind::kIoError,
            .glob = "*.pagelog"});
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  a_run.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  EXPECT_EQ(a_->last_run_stats().archive_read_retries, 1);
  EXPECT_EQ(Xs(meta_a_.get(), "RA"), (std::vector<int64_t>{1, 1, 2}));
}

/// A one-table history for the result fold: t (g, x) with one row whose
/// group g is INTEGER 1 at snapshot 1 and REAL 1.0 at snapshots 2 and 3,
/// while x is 10, 20, 30.
class RqlGroupTypeChangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = sql::Database::Open(&env_, "data");
    auto meta = sql::Database::Open(&env_, "meta");
    ASSERT_TRUE(data.ok() && meta.ok());
    data_ = std::move(*data);
    meta_ = std::move(*meta);
    engine_ = std::make_unique<RqlEngine>(data_.get(), meta_.get());
    ASSERT_TRUE(engine_->EnsureSnapIds().ok());
    for (const char* sql :
         {"CREATE TABLE t (g INTEGER, x INTEGER)",
          "INSERT INTO t VALUES (1, 10)", "BEGIN; COMMIT WITH SNAPSHOT;",
          "UPDATE t SET g = 1.0, x = 20", "BEGIN; COMMIT WITH SNAPSHOT;",
          "UPDATE t SET x = 30", "BEGIN; COMMIT WITH SNAPSHOT;"}) {
      ASSERT_TRUE(data_->Exec(sql).ok()) << sql;
    }
    for (int snap = 1; snap <= 3; ++snap) {
      ASSERT_TRUE(meta_
                      ->Exec("INSERT INTO SnapIds VALUES (" +
                             std::to_string(snap) + ", 't', '')")
                      .ok());
    }
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<sql::Database> data_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<RqlEngine> engine_;
};

TEST_F(RqlGroupTypeChangeTest, AvgFollowsTheStoredGroupAcrossTypeChange) {
  // From snapshot 2 on, the incoming group REAL 1.0 matches the stored
  // INTEGER 1 (CompareValues equates them). The AVG state must be the
  // stored group's, which the cold iteration seeded: looking it up by the
  // incoming group read past the end of an empty slot vector.
  for (AggTableStrategy strategy :
       {AggTableStrategy::kIndexProbe, AggTableStrategy::kSortMerge}) {
    for (RqlProfile profile :
         {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
      engine_->mutable_options()->agg_table_strategy = strategy;
      engine_->mutable_options()->profile = profile;
      std::string table =
          std::string(strategy == AggTableStrategy::kIndexProbe ? "Probe"
                                                                : "Merge") +
          "_" + RqlProfileName(profile);
      Status s = engine_->AggregateDataInTable(
          "SELECT snap_id FROM SnapIds", "SELECT g, x FROM t", table,
          "(x,avg)");
      ASSERT_TRUE(s.ok()) << table << ": " << s.ToString();
      auto r = meta_->Query("SELECT g, x FROM " + table);
      ASSERT_TRUE(r.ok()) << table;
      ASSERT_EQ(r->rows.size(), 1u) << table;
      EXPECT_EQ(r->rows[0][0].type(), sql::ValueType::kInteger) << table;
      EXPECT_EQ(r->rows[0][0].integer(), 1) << table;
      EXPECT_EQ(r->rows[0][1].type(), sql::ValueType::kReal) << table;
      EXPECT_DOUBLE_EQ(r->rows[0][1].real(), 20.0) << table;
    }
  }
}

TEST(RqlFastFoldTest, HotIterationsNeverReadTheResultIndex) {
  // From snapshot 2 on, Qq's predicate deletes every key of the result
  // table's `<table>_rql_idx` before the iteration's first row is folded.
  // A fold that probes the index then finds no match and inserts a
  // duplicate row; kFast's AggregateDataInTable fold reads its directory
  // instead and must produce the untampered result. The paper-faithful runs show the
  // tampering bites.
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  RqlEngine engine(data->get(), meta->get());
  ASSERT_TRUE(engine.EnsureSnapIds().ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE t (g INTEGER, x INTEGER)").ok());
  for (int g = 0; g < 10; ++g) {
    ASSERT_TRUE((*data)
                    ->Exec("INSERT INTO t VALUES (" + std::to_string(g) +
                           ", " + std::to_string(g) + ")")
                    .ok());
  }
  for (int snap = 1; snap <= 4; ++snap) {
    if (snap > 1) {
      ASSERT_TRUE((*data)->Exec("BEGIN; UPDATE t SET x = x + 1").ok());
    }
    ASSERT_TRUE(engine.CommitWithSnapshot("t").ok());
  }

  std::string wipe_index;  // the index to empty; none while empty
  sql::Database* meta_db = meta->get();
  (*data)->RegisterFunction(
      "wipe_result_index", 1, 1,
      [&](const std::vector<Value>& args) -> Result<Value> {
        if (wipe_index.empty() || args[0].AsInt() < 2) return Value::Integer(1);
        const sql::IndexInfo* index =
            meta_db->catalog()->data().FindIndex(wipe_index);
        if (index == nullptr) return Status::Internal("no " + wipe_index);
        std::vector<Row> keys;
        RQL_ASSIGN_OR_RETURN(
            sql::BTree::Iterator it,
            sql::BTree::SeekFirst(meta_db->store(), index->root));
        for (; it.Valid(); it.Next()) keys.push_back(it.key());
        sql::BTree tree(meta_db->store(), index->root);
        for (const Row& key : keys) RQL_RETURN_IF_ERROR(tree.Delete(key));
        return Value::Integer(1);
      });

  auto run = [&](const std::string& table) {
    return engine.AggregateDataInTable(
        "SELECT snap_id FROM SnapIds",
        "SELECT g, x FROM t WHERE wipe_result_index(current_snapshot()) = 1",
        table, "(x,sum)");
  };
  auto dump = [&](const std::string& table) {
    auto rows = (*meta)->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << table;
    std::vector<std::string> out;
    if (rows.ok()) {
      for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    }
    return out;
  };
  ASSERT_TRUE(run("base").ok());
  std::vector<std::string> expected = dump("base");
  ASSERT_EQ(expected.size(), 10u);

  for (RqlProfile profile : {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
    engine.mutable_options()->profile = profile;
    std::string table = std::string("R_") + RqlProfileName(profile);
    wipe_index = table + "_rql_idx";
    Status s = run(table);
    ASSERT_TRUE(s.ok()) << table << ": " << s.ToString();
    int64_t hot_probes = 0;
    for (const RqlIterationStats& it : engine.last_run_stats().iterations) {
      if (it.snapshot >= 2) hot_probes += it.result_probes;
    }
    EXPECT_EQ(hot_probes, 30) << table;
    if (profile == RqlProfile::kFast) {
      EXPECT_EQ(dump(table), expected) << table;
    } else {
      EXPECT_GT(dump(table).size(), expected.size()) << table;
    }
  }
}


TEST(RqlFastFoldTest, FailedIterationDiscardsTheRun) {
  // The third snapshot's x is text, so SUM fails mid-fold, after g = 1's
  // update (queued in place under kFast). The iteration rolls back and
  // drops the fold state, and the run is dropped under both profiles,
  // leaving the metadata database usable: a rerun stores the same rows at
  // the same slots under both.
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  RqlEngine engine(data->get(), meta->get());
  ASSERT_TRUE(engine.EnsureSnapIds().ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE t (g INTEGER, x INTEGER)").ok());
  ASSERT_TRUE((*data)->Exec("INSERT INTO t VALUES (1, 1), (2, 2)").ok());
  ASSERT_TRUE(engine.CommitWithSnapshot("t1").ok());
  ASSERT_TRUE((*data)->Exec("BEGIN; UPDATE t SET x = x + 1").ok());
  ASSERT_TRUE(engine.CommitWithSnapshot("t2").ok());
  ASSERT_TRUE((*data)->Exec("BEGIN; UPDATE t SET x = 'oops' WHERE g = 2").ok());
  ASSERT_TRUE(engine.CommitWithSnapshot("t3").ok());
  std::vector<std::vector<std::string>> heaps;  // per profile, slot:record
  for (RqlProfile profile : {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
    engine.mutable_options()->profile = profile;
    Status s = engine.AggregateDataInTable("SELECT snap_id FROM SnapIds",
                                           "SELECT g, x FROM t", "R",
                                           "(x,sum)");
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ((*meta)->catalog()->data().FindTable("R"), nullptr);
    ASSERT_TRUE(engine
                    .AggregateDataInTable(
                        "SELECT snap_id FROM SnapIds WHERE snap_id < 3",
                        "SELECT g, x FROM t", "R", "(x,sum)")
                    .ok());
    auto sum = (*meta)->QueryScalar("SELECT SUM(x) FROM R");
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(sum->integer(), 8);  // (1 + 2) + (2 + 3)
    const sql::TableInfo* info = (*meta)->catalog()->data().FindTable("R");
    ASSERT_NE(info, nullptr);
    std::vector<std::string> heap;
    for (auto it = sql::HeapTable::Scan((*meta)->store(), info->root);
         it.Valid(); it.Next()) {
      heap.push_back(std::to_string(sql::RidSlot(it.rid())) + ":" +
                     std::string(it.record()));
    }
    heaps.push_back(heap);
  }
  EXPECT_EQ(heaps[0], heaps[1]);
}

}  // namespace
}  // namespace rql
