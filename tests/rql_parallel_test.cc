// Tests for parallel RQL execution (the paper's Section 7 future work):
// parallel runs must produce byte-identical results to serial runs, for
// every supporting mechanism and any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/random.h"
#include "rql/rql.h"

namespace rql {
namespace {

using sql::Row;
using sql::Value;

struct Env {
  storage::InMemoryEnv storage;
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
};

Env MakeEnv(int snapshots) {
  Env e;
  auto data = sql::Database::Open(&e.storage, "data");
  auto meta = sql::Database::Open(&e.storage, "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  e.data = std::move(*data);
  e.meta = std::move(*meta);
  e.engine = std::make_unique<RqlEngine>(e.data.get(), e.meta.get());
  EXPECT_TRUE(e.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(
      e.data->Exec("CREATE TABLE t (k INTEGER, v INTEGER)").ok());
  Random rng(99);
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(e.data->Exec("BEGIN").ok());
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(e.data
                      ->Exec("INSERT INTO t VALUES (" +
                             std::to_string(rng.Uniform(20)) + ", " +
                             std::to_string(s * 100 + i) + ")")
                      .ok());
    }
    EXPECT_TRUE(e.data->Exec("DELETE FROM t WHERE v % 7 = 3").ok());
    EXPECT_TRUE(
        e.engine->CommitWithSnapshot("s" + std::to_string(s)).ok());
  }
  return e;
}

std::multiset<std::string> TableContents(sql::Database* db,
                                         const std::string& table) {
  auto rows = db->Query("SELECT * FROM " + table);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::multiset<std::string> out;
  for (const Row& row : rows->rows) out.insert(sql::EncodeRow(row));
  return out;
}

class RqlParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(RqlParallelTest, CollateDataMatchesSerial) {
  Env e = MakeEnv(12);
  const char* qq =
      "SELECT k, COUNT(*) AS c, current_snapshot() AS sid FROM t GROUP BY k";
  ASSERT_TRUE(
      e.engine->CollateData("SELECT snap_id FROM SnapIds", qq, "Serial")
          .ok());
  auto serial = TableContents(e.meta.get(), "Serial");
  ASSERT_FALSE(serial.empty());

  e.engine->mutable_options()->parallel_workers = GetParam();
  Status s = e.engine->CollateData("SELECT snap_id FROM SnapIds", qq,
                                   "Parallel");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(e.engine->last_run_stats().parallel);
  EXPECT_EQ(e.engine->last_run_stats().iterations.size(), 12u);
  auto parallel = TableContents(e.meta.get(), "Parallel");
  EXPECT_EQ(serial, parallel);
}

TEST_P(RqlParallelTest, AggregateVariableMatchesSerial) {
  Env e = MakeEnv(10);
  const char* qq = "SELECT SUM(v) AS total FROM t";
  ASSERT_TRUE(e.engine
                  ->AggregateDataInVariable("SELECT snap_id FROM SnapIds",
                                            qq, "Serial", "max")
                  .ok());
  auto serial = e.meta->QueryScalar("SELECT * FROM Serial");
  ASSERT_TRUE(serial.ok());

  e.engine->mutable_options()->parallel_workers = GetParam();
  ASSERT_TRUE(e.engine
                  ->AggregateDataInVariable("SELECT snap_id FROM SnapIds",
                                            qq, "Parallel", "max")
                  .ok());
  auto parallel = e.meta->QueryScalar("SELECT * FROM Parallel");
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(sql::CompareValues(*serial, *parallel), 0);
}

TEST_P(RqlParallelTest, OrderDependentMechanismsStaySequential) {
  Env e = MakeEnv(8);
  e.engine->mutable_options()->parallel_workers = GetParam();
  // Intervals depend on iteration order; the engine must fall back to the
  // sequential path and still be correct.
  ASSERT_TRUE(e.engine
                  ->CollateDataIntoIntervals(
                      "SELECT snap_id FROM SnapIds",
                      "SELECT DISTINCT k FROM t", "Lifetimes")
                  .ok());
  EXPECT_FALSE(e.engine->last_run_stats().parallel);
  // Intervals must tile: for every row of every snapshot there is exactly
  // one covering interval.
  for (int snap = 1; snap <= 8; ++snap) {
    auto distinct = e.data->QueryScalar(
        "SELECT AS OF " + std::to_string(snap) +
        " COUNT(DISTINCT k) FROM t");
    ASSERT_TRUE(distinct.ok());
    auto covering = e.meta->QueryScalar(
        "SELECT COUNT(*) FROM Lifetimes WHERE start_snapshot <= " +
        std::to_string(snap) + " AND end_snapshot >= " +
        std::to_string(snap));
    ASSERT_TRUE(covering.ok());
    EXPECT_EQ(covering->integer(), distinct->integer()) << "snap " << snap;
  }
}

TEST_P(RqlParallelTest, ProfilesAndMemoMatchSerial) {
  // Workers run the sequential iteration body on their own handles, so
  // every profile and memo combination must fold exactly what the serial
  // run folds, in the same order — current_snapshot() included.
  Env e = MakeEnv(12);
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const char* collate_qq =
      "SELECT k, COUNT(*) AS c, current_snapshot() AS sid FROM t GROUP BY k";
  const char* var_qq = "SELECT SUM(v) + current_snapshot() AS total FROM t";
  auto dump = [&](const std::string& table) {
    auto rows = e.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << table << ": " << rows.status().ToString();
    std::vector<std::string> out;
    if (rows.ok()) {
      for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    }
    return out;
  };
  ASSERT_TRUE(e.engine->CollateData(qs, collate_qq, "SerialC").ok());
  ASSERT_TRUE(
      e.engine->AggregateDataInVariable(qs, var_qq, "SerialV", "sum").ok());
  const std::vector<std::string> serial_c = dump("SerialC");
  const std::vector<std::string> serial_v = dump("SerialV");
  ASSERT_FALSE(serial_c.empty());

  for (RqlProfile profile : {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
    for (bool memoize : {false, true}) {
      auto memo = std::make_unique<retro::MemoTable>();
      RqlOptions opts;
      opts.profile = profile;
      opts.memo = memoize ? memo.get() : nullptr;
      opts.parallel_workers = GetParam();
      *e.engine->mutable_options() = opts;
      const std::string label = std::string(RqlProfileName(profile)) +
                                (memoize ? "_memo" : "_plain");
      ASSERT_TRUE(e.engine->CollateData(qs, collate_qq, "C_" + label).ok())
          << label;
      const RqlRunStats& stats = e.engine->last_run_stats();
      EXPECT_TRUE(stats.parallel) << label;
      EXPECT_EQ(stats.iterations.size(), 12u) << label;
      EXPECT_EQ(dump("C_" + label), serial_c) << label;
      ASSERT_TRUE(e.engine
                      ->AggregateDataInVariable(qs, var_qq, "V_" + label,
                                                "sum")
                      .ok())
          << label;
      EXPECT_EQ(dump("V_" + label), serial_v) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, RqlParallelTest,
                         ::testing::Values(2, 3, 8));

TEST(RqlParallelStatsTest, TotalUsDerivesFromWallTimeNotPerIterationSums) {
  Env e = MakeEnv(10);
  e.engine->mutable_options()->parallel_workers = 4;
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT k, v FROM t", "R")
                  .ok());
  const RqlRunStats& stats = e.engine->last_run_stats();
  ASSERT_TRUE(stats.parallel);
  // Regression: TotalUs once summed per-iteration query_eval_us (each of
  // which embeds the same concurrent wall interval) on top of
  // parallel_wall_us, double counting overlapped work. The total must be
  // the wall-clock decomposition: parallel phase + serial replay.
  int64_t expected = stats.parallel_wall_us;
  for (const RqlIterationStats& it : stats.iterations) {
    expected += it.udf_us;
  }
  EXPECT_EQ(stats.TotalUs(), expected);
  // And in particular never exceeds the sum of phases by an extra copy of
  // the per-iteration evaluation time.
  int64_t eval_sum = 0;
  for (const RqlIterationStats& it : stats.iterations) {
    eval_sum += it.query_eval_us;
  }
  EXPECT_LE(stats.TotalUs(), expected + eval_sum);
}

TEST(RqlParallelStatsTest, FastWorkersReusePlansAndAdvanceTheirCursors) {
  // Under kFast each worker prepares Qq once on its own handle and opens
  // its snapshots through its own cursor, so a 4-worker run parses at most
  // four times and derives some SPTs incrementally.
  Env e = MakeEnv(12);
  RqlOptions* opts = e.engine->mutable_options();
  opts->profile = RqlProfile::kFast;
  opts->parallel_workers = 4;
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT k, v FROM t WHERE v % 2 = 0", "R")
                  .ok());
  const RqlRunStats& stats = e.engine->last_run_stats();
  ASSERT_TRUE(stats.parallel);
  EXPECT_GE(stats.qq_parse_count, 1);
  EXPECT_LE(stats.qq_parse_count, 4);
  int64_t plan_hits = 0;
  for (const RqlIterationStats& it : stats.iterations) {
    plan_hits += it.plan_cache_hits;
  }
  EXPECT_EQ(plan_hits + stats.qq_parse_count, 12);
  // Each parallel iteration reports its worker's own store counters.
  int64_t spt_delta_entries = 0;
  for (const RqlIterationStats& it : stats.iterations) {
    spt_delta_entries += it.spt_delta_entries;
  }
  EXPECT_GT(spt_delta_entries, 0);
}

TEST(RqlParallelStatsTest, WorkersCallFunctionsRegisteredOnTheDataHandle) {
  // Workers execute on their own attached handles, which must resolve the
  // functions registered on the data handle.
  Env e = MakeEnv(8);
  e.data->RegisterFunction(
      "twice", 1, 1, [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Integer(args[0].AsInt() * 2);
      });
  const char* qq = "SELECT k, twice(v) AS w, current_snapshot() AS s FROM t";
  ASSERT_TRUE(
      e.engine->CollateData("SELECT snap_id FROM SnapIds", qq, "Serial")
          .ok());
  e.engine->mutable_options()->parallel_workers = 4;
  Status s = e.engine->CollateData("SELECT snap_id FROM SnapIds", qq, "Par");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(e.engine->last_run_stats().parallel);
  EXPECT_EQ(TableContents(e.meta.get(), "Serial"),
            TableContents(e.meta.get(), "Par"));
}

TEST(RqlParallelStatsTest, ConcurrencyCountersZeroInSequentialRuns) {
  Env e = MakeEnv(8);
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT k, v FROM t", "Seq")
                  .ok());
  const RqlRunStats& serial = e.engine->last_run_stats();
  ASSERT_FALSE(serial.parallel);
  // A sequential run has nothing to race with: coalesced fetches and
  // blocked time must be zero by construction, not merely small.
  EXPECT_EQ(serial.coalesced_loads, 0);
  EXPECT_EQ(serial.parallel_lock_wait_us, 0);
  for (const RqlIterationStats& it : serial.iterations) {
    EXPECT_EQ(it.coalesced_loads, 0);
  }

  // A parallel run reports the counters (possibly zero at this tiny
  // scale, but wired and non-negative) alongside identical results.
  e.engine->mutable_options()->parallel_workers = 4;
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT k, v FROM t", "Par")
                  .ok());
  const RqlRunStats& parallel = e.engine->last_run_stats();
  ASSERT_TRUE(parallel.parallel);
  EXPECT_GE(parallel.coalesced_loads, 0);
  EXPECT_GE(parallel.parallel_lock_wait_us, 0);
  EXPECT_EQ(TableContents(e.meta.get(), "Seq"),
            TableContents(e.meta.get(), "Par"));
}

/// Per snapshot of a run: the snapshot pages its iteration read, however
/// each read was served (archive load, cache hit, coalesced wait, or a page
/// shared with the current state), and the Maplog pages its SPT build
/// scanned. Both depend on the history alone, not on what the snapshot
/// cache held or who else was reading.
std::vector<std::pair<int64_t, int64_t>> PageCounts(const RqlRunStats& stats) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (const RqlIterationStats& it : stats.iterations) {
    out.emplace_back(
        it.pagelog_pages + it.cache_hits + it.coalesced_loads + it.db_pages,
        it.maplog_pages);
  }
  return out;
}

TEST(RqlParallelStatsTest, ParallelIterationsCarryExactStoreCounters) {
  // kPaperFaithful, no scan cache: every iteration builds its SPT cold and
  // reads every page it needs through its own views, so each snapshot's
  // counts are the same whichever worker answers it.
  Env e = MakeEnv(12);
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const char* qq = "SELECT k, SUM(v) AS s FROM t GROUP BY k";
  ASSERT_TRUE(e.engine->CollateData(qs, qq, "Serial").ok());
  const RqlRunStats serial = e.engine->last_run_stats();
  ASSERT_FALSE(serial.parallel);

  e.engine->mutable_options()->parallel_workers = 4;
  ASSERT_TRUE(e.engine->CollateData(qs, qq, "Par").ok());
  const RqlRunStats& parallel = e.engine->last_run_stats();
  ASSERT_TRUE(parallel.parallel);
  ASSERT_EQ(parallel.iterations.size(), serial.iterations.size());
  for (size_t i = 0; i < serial.iterations.size(); ++i) {
    EXPECT_EQ(parallel.iterations[i].snapshot, serial.iterations[i].snapshot);
  }
  const auto counts = PageCounts(serial);
  int64_t maplog_pages = 0;
  for (const auto& [pages, maplog] : counts) {
    EXPECT_GT(pages, 0);
    maplog_pages += maplog;
  }
  EXPECT_GT(maplog_pages, 0);
  EXPECT_EQ(PageCounts(parallel), counts);
  EXPECT_EQ(TableContents(e.meta.get(), "Serial"),
            TableContents(e.meta.get(), "Par"));

  // With a memo, each worker's cursor builds its SPTs in the replay
  // probe's Advance, which its iterations report too.
  auto memo = std::make_unique<retro::MemoTable>();
  e.engine->mutable_options()->memo = memo.get();
  ASSERT_TRUE(e.engine->CollateData(qs, qq, "Memo").ok());
  int64_t spt_work = 0;
  for (const RqlIterationStats& it : e.engine->last_run_stats().iterations) {
    spt_work += it.maplog_pages + it.spt_delta_entries;
  }
  EXPECT_GT(spt_work, 0);
}

TEST(RqlParallelStatsTest, OverlappingRunsKeepTheirOwnCounters) {
  // A CollateData sweep on a cold cache, alone and then while another
  // handle on the same store runs AS OF queries in a loop: the sweep's
  // per-iteration counters must not change, and each of the reader's
  // statements must count its own reads.
  Env e = MakeEnv(12);
  std::atomic<bool> reading{false};
  std::atomic<int64_t> reader_statements{0};
  // Qq calls overlap(current_snapshot()) on every row. While the reader
  // runs, a snapshot's first call blocks until the reader finishes one more
  // statement, so every iteration of the sweep overlaps the reader's reads.
  retro::SnapshotId waited = retro::kNoSnapshot;
  e.data->RegisterFunction(
      "overlap", 1, 1, [&](const std::vector<Value>& args) -> Result<Value> {
        const auto snap = static_cast<retro::SnapshotId>(args[0].AsInt());
        if (reading.load() && snap != waited) {
          waited = snap;
          const int64_t seen = reader_statements.load();
          while (reader_statements.load() == seen) std::this_thread::yield();
        }
        return Value::Integer(0);
      });
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const char* qq =
      "SELECT k, v FROM t WHERE v % 3 = overlap(current_snapshot())";
  ASSERT_TRUE(e.engine->CollateData(qs, qq, "Alone").ok());
  const auto alone = PageCounts(e.engine->last_run_stats());

  auto reader_db = sql::Database::Attach(e.data->store());
  ASSERT_TRUE(reader_db.ok()) << reader_db.status().ToString();
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::thread reader([&] {
    sql::Database* db = reader_db->get();
    for (uint64_t i = 0; !stop.load(); ++i) {
      const std::string sql = "SELECT AS OF " + std::to_string(1 + i % 12) +
                              " COUNT(*) FROM t";
      const sql::ExecStats& exec = db->last_stats().exec;
      if (!db->Query(sql).ok() ||
          exec.store.pagelog_page_reads + exec.store.snapshot_cache_hits +
                  exec.store.coalesced_loads + exec.store.db_page_reads ==
              0) {
        ++reader_failures;
      }
      ++reader_statements;
    }
  });
  reading = true;
  for (int round = 0; round < 3; ++round) {
    const std::string table = "Overlapped" + std::to_string(round);
    waited = retro::kNoSnapshot;
    Status s = e.engine->CollateData(qs, qq, table);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(PageCounts(e.engine->last_run_stats()), alone)
        << "round " << round;
    EXPECT_EQ(TableContents(e.meta.get(), "Alone"),
              TableContents(e.meta.get(), table));
  }
  reading = false;
  stop = true;
  reader.join();
  EXPECT_GE(reader_statements.load(), 3 * 12);
  EXPECT_EQ(reader_failures.load(), 0);
}

TEST(ReplaceCurrentSnapshotTest, TextualRewrite) {
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT current_snapshot() FROM t", 7),
            "SELECT 7 FROM t");
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT CURRENT_SNAPSHOT FROM t", 7),
            "SELECT CURRENT_SNAPSHOT FROM t");  // no parens: untouched
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT current_snapshot ( ) AS sid, "
                "'current_snapshot()' FROM t",
                12),
            "SELECT 12 AS sid, 'current_snapshot()' FROM t");
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT my_current_snapshot() FROM t", 3),
            "SELECT my_current_snapshot() FROM t");  // word boundary
}

TEST(ReplaceCurrentSnapshotTest, CommentsAreNotRewritten) {
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT current_snapshot() -- not current_snapshot()\n"
                "FROM t",
                7),
            "SELECT 7 -- not current_snapshot()\nFROM t");
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT /* current_snapshot() */ current_snapshot() FROM t",
                7),
            "SELECT /* current_snapshot() */ 7 FROM t");
  // A quote inside a comment must not open a string.
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT /* it's */ current_snapshot() FROM t", 4),
            "SELECT /* it's */ 4 FROM t");
  // An unterminated block comment swallows the rest of the text.
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT 1 /* current_snapshot()", 4),
            "SELECT 1 /* current_snapshot()");
}

TEST(ReplaceCurrentSnapshotTest, QuotedIdentifiersAreNotRewritten) {
  // "current_snapshot()" in double quotes is an identifier, not a call.
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT \"current_snapshot()\" FROM t", 7),
            "SELECT \"current_snapshot()\" FROM t");
  // An apostrophe inside a quoted identifier must not open a string
  // literal — the genuine call after it is still rewritten.
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT \"it's\", current_snapshot() FROM t", 9),
            "SELECT \"it's\", 9 FROM t");
  // Doubled-quote escape inside the identifier keeps the run open.
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT \"a\"\"current_snapshot()\", current_snapshot() "
                "FROM t",
                2),
            "SELECT \"a\"\"current_snapshot()\", 2 FROM t");
  // Symmetrically, a double quote inside a string literal is plain text.
  EXPECT_EQ(RqlEngine::ReplaceCurrentSnapshot(
                "SELECT '\"', current_snapshot() FROM t", 5),
            "SELECT '\"', 5 FROM t");
}

TEST(InjectAsOfTest, QuotedIdentifiersAreSkipped) {
  EXPECT_EQ(RqlEngine::InjectAsOf("SELECT \"select\" FROM t", 5),
            "SELECT AS OF 5 \"select\" FROM t");
  // An apostrophe inside a quoted identifier must not open a string that
  // would hide the real SELECT keyword.
  EXPECT_EQ(
      RqlEngine::InjectAsOf("WITH \"it's\" AS (SELECT 1) SELECT k FROM t", 5),
      "WITH \"it's\" AS (SELECT AS OF 5 1) SELECT k FROM t");
}

TEST(RqlTraceParallelTest, TraceWellFormedAndBoundedUnderWorkers) {
  Env e = MakeEnv(12);
  RqlOptions* opts = e.engine->mutable_options();
  opts->parallel_workers = 4;
  opts->trace = true;
  opts->trace_capacity = 8;  // far below the ~26 events a run emits
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT k, v FROM t", "Par")
                  .ok());
  const RqlTrace& bounded = e.engine->last_run_trace();
  EXPECT_EQ(bounded.capacity(), 8u);
  EXPECT_EQ(bounded.Events().size(), 8u);
  EXPECT_GT(bounded.dropped(), 0);
  EXPECT_EQ(bounded.emitted(), bounded.dropped() + 8);

  // With enough capacity the stream is complete and well-formed: a
  // run_begin/run_end envelope, one begin and one end per snapshot, and
  // worker attribution within the configured pool.
  opts->trace_capacity = 4096;
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT k, v FROM t", "Par2")
                  .ok());
  std::vector<RqlTraceEvent> events = e.engine->last_run_trace().Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(e.engine->last_run_trace().dropped(), 0);
  EXPECT_EQ(events.front().type, RqlTraceEventType::kRunBegin);
  EXPECT_EQ(events.front().args[1], 4);  // worker count
  EXPECT_EQ(events.back().type, RqlTraceEventType::kRunEnd);
  int begins = 0, ends = 0, stalls = 0;
  for (const RqlTraceEvent& ev : events) {
    EXPECT_LE(ev.worker, 4);
    EXPECT_GE(ev.t_us, 0);
    if (ev.type == RqlTraceEventType::kIterationBegin) ++begins;
    if (ev.type == RqlTraceEventType::kIterationEnd) ++ends;
    if (ev.type == RqlTraceEventType::kWorkerStall) ++stalls;
  }
  EXPECT_EQ(begins, 12);
  EXPECT_EQ(ends, 12);
  EXPECT_EQ(stalls, 1);
}

TEST(RqlTraceParallelTest, LiteralSurvivesParallelTextualRewrite) {
  // Parallel workers evaluate current_snapshot() on their own handles; a
  // quoted literal that looks like the call must come through
  // byte-identical to the serial run.
  Env e = MakeEnv(6);
  const char* qq =
      "SELECT k, 'current_snapshot()' AS tag, current_snapshot() AS sid "
      "FROM t";
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds", qq, "Serial")
                  .ok());
  e.engine->mutable_options()->parallel_workers = 4;
  ASSERT_TRUE(e.engine
                  ->CollateData("SELECT snap_id FROM SnapIds", qq, "Par")
                  .ok());
  EXPECT_EQ(TableContents(e.meta.get(), "Serial"),
            TableContents(e.meta.get(), "Par"));
  auto tag = e.meta->QueryScalar("SELECT DISTINCT tag FROM Par");
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(tag->text(), "current_snapshot()");
}

TEST(InjectAsOfTest, SkipsStringsAndComments) {
  EXPECT_EQ(RqlEngine::InjectAsOf("SELECT k FROM t", 5),
            "SELECT AS OF 5 k FROM t");
  // The first SELECT inside a leading comment must not be annotated.
  EXPECT_EQ(RqlEngine::InjectAsOf("-- SELECT not this\nSELECT k FROM t", 5),
            "-- SELECT not this\nSELECT AS OF 5 k FROM t");
  EXPECT_EQ(RqlEngine::InjectAsOf("/* SELECT not this */ SELECT k FROM t", 5),
            "/* SELECT not this */ SELECT AS OF 5 k FROM t");
  // Nor one inside a string literal.
  EXPECT_EQ(RqlEngine::InjectAsOf("SELECT 'SELECT' FROM t", 5),
            "SELECT AS OF 5 'SELECT' FROM t");
  // A quote inside a comment must not flip string state.
  EXPECT_EQ(RqlEngine::InjectAsOf("/* don't */ SELECT k FROM t", 5),
            "/* don't */ SELECT AS OF 5 k FROM t");
}

}  // namespace
}  // namespace rql
