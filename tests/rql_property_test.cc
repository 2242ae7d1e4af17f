// Property tests for the RQL mechanisms: against randomized histories,
// every mechanism's output must equal a brute-force recomputation built
// from plain AS OF snapshot queries. This validates the whole stack —
// parser, executor, snapshot store, Maplog/Skippy, COW capture — end to
// end.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "common/random.h"
#include "rql/rql.h"
#include "sql/btree.h"
#include "sql/heap_table.h"
#include "sql/shared_scan_cache.h"
#include "storage/fault_env.h"

namespace rql {
namespace {

using sql::Row;
using sql::Value;

/// Qq parses of a run that executed `misses` iterations: one per executed
/// iteration under kPaperFaithful. Under kFast a sequential run parses
/// once; in a parallel run each worker that executed an iteration parses
/// once, which claims decide: at most min(misses, workers), and at least
/// one when anything executed.
void ExpectQqParses(const RqlRunStats& stats, bool fast, int64_t misses,
                    int workers, const std::string& label) {
  if (!fast) {
    EXPECT_EQ(stats.qq_parse_count, misses) << label;
  } else if (!stats.parallel) {
    EXPECT_EQ(stats.qq_parse_count, std::min<int64_t>(misses, 1)) << label;
  } else {
    EXPECT_LE(stats.qq_parse_count, std::min<int64_t>(misses, workers))
        << label;
    EXPECT_GE(stats.qq_parse_count, misses > 0 ? 1 : 0) << label;
  }
}

/// The run-scoped memo's counter identities (a fresh MemoTable): every
/// iteration either executed — a miss, parsing Qq as ExpectQqParses
/// says — or replayed through the delta fast path.
void ExpectRunScopedMemoCounters(const RqlRunStats& stats, bool fast,
                                 int workers, const std::string& label) {
  int64_t hits = 0, misses = 0;
  for (const RqlIterationStats& it : stats.iterations) {
    hits += it.memo_hits;
    misses += it.memo_misses;
  }
  EXPECT_EQ(hits, 0) << label;
  EXPECT_EQ(misses + stats.iterations_skipped,
            static_cast<int64_t>(stats.iterations.size()))
      << label;
  ExpectQqParses(stats, fast, misses, workers, label);
}

// The whole suite runs through a FaultInjectionEnv with nothing armed:
// every property doubles as a transparency check for the fault layer.
struct Fixture {
  std::unique_ptr<storage::InMemoryEnv> base_env =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<storage::FaultInjectionEnv> env =
      std::make_unique<storage::FaultInjectionEnv>(base_env.get());
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  std::vector<retro::SnapshotId> snaps;

  // Reference model: per snapshot, the set of (item, score) rows.
  std::map<retro::SnapshotId, std::map<int64_t, int64_t>> model;
};

/// Builds a random history of inserts/deletes/updates on a simple table,
/// mirrored into an in-memory model, declaring a snapshot per round.
Fixture MakeFixture(uint64_t seed, int snapshots, int items) {
  Fixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(
      f.data->Exec("CREATE TABLE live (item INTEGER, score INTEGER)").ok());

  Random rng(seed);
  std::map<int64_t, int64_t> current;
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    int ops = 1 + static_cast<int>(rng.Uniform(5));
    for (int op = 0; op < ops; ++op) {
      int64_t item = static_cast<int64_t>(rng.Uniform(items));
      switch (rng.Uniform(3)) {
        case 0: {  // upsert
          int64_t score = static_cast<int64_t>(rng.Uniform(100));
          if (current.count(item)) {
            EXPECT_TRUE(f.data
                            ->Exec("UPDATE live SET score = " +
                                   std::to_string(score) +
                                   " WHERE item = " + std::to_string(item))
                            .ok());
          } else {
            EXPECT_TRUE(f.data
                            ->Exec("INSERT INTO live VALUES (" +
                                   std::to_string(item) + ", " +
                                   std::to_string(score) + ")")
                            .ok());
          }
          current[item] = score;
          break;
        }
        case 1:  // delete
          EXPECT_TRUE(f.data
                          ->Exec("DELETE FROM live WHERE item = " +
                                 std::to_string(item))
                          .ok());
          current.erase(item);
          break;
        default: {  // bump score
          EXPECT_TRUE(f.data
                          ->Exec("UPDATE live SET score = score + 1 "
                                 "WHERE item = " + std::to_string(item))
                          .ok());
          if (current.count(item)) ++current[item];
          break;
        }
      }
    }
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(s));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
    f.model[*snap] = current;
  }
  return f;
}

/// Like MakeFixture, but the table Qq reads (`live`) changes only every
/// `live_period`-th snapshot while a side table (`churn`) changes every
/// snapshot — the COW high-sharing shape: most consecutive snapshots map
/// identical `live` page versions, so deltas relevant to Qq are empty and
/// page versions are widely shared across the set.
///
/// `live` spans several heap pages (filler rows force the split) with two
/// hot zones on different pages: zone A (items 0..items) changes every
/// `live_period`-th snapshot, zone B (items 50000..) every
/// 2*`live_period`-th. An iteration that executes because zone A changed
/// still reads zone B's unchanged — and archived, since B changes again
/// later — page version, so the decoded-page cache gets hits even when
/// the memo's delta fast path filters the run down to changed snapshots.
/// Post-load mutations are in-place UPDATEs and DELETEs only (records are
/// fixed-width, so UPDATE never relocates): an INSERT would land on the
/// heap tail page and perturb zone B's version chain.
Fixture MakeSparseFixture(uint64_t seed, int snapshots, int items,
                          int live_period) {
  Fixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(
      f.data->Exec("CREATE TABLE live (item INTEGER, score INTEGER)").ok());
  EXPECT_TRUE(
      f.data->Exec("CREATE TABLE churn (k INTEGER, v INTEGER)").ok());

  Random rng(seed);
  std::map<int64_t, int64_t> current;
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    // The side table churns every snapshot, so the history is never
    // trivially static — only the pages Qq reads go untouched.
    EXPECT_TRUE(f.data
                    ->Exec("INSERT INTO churn VALUES (" + std::to_string(s) +
                           ", " + std::to_string(rng.Uniform(1000)) + ")")
                    .ok());
    if (s == 0) {
      // Zone A: item 0 (never deleted, so live is never empty) plus the
      // hot items, all on the first heap page.
      EXPECT_TRUE(f.data->Exec("INSERT INTO live VALUES (0, 5)").ok());
      current[0] = 5;
      for (int i = 1; i <= items; ++i) {
        int64_t score = static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(i) + ", " +
                               std::to_string(score) + ")")
                        .ok());
        current[i] = score;
      }
      // Filler: ~155 fixed-width rows fit a 4 KiB page, so 320 rows push
      // zone B at least two pages past zone A. Never touched again.
      for (int i = 0; i < 320; ++i) {
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(1000 + i) + ", 7)")
                        .ok());
        current[1000 + i] = 7;
      }
      for (int i = 0; i < items; ++i) {
        int64_t score = static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(50000 + i) + ", " +
                               std::to_string(score) + ")")
                        .ok());
        current[50000 + i] = score;
      }
    } else {
      if (s % live_period == 0) {
        // Zone A round. The unconditional item-0 update guarantees the
        // iteration executes, which is what gives zone B's shared page
        // version a reader.
        int64_t score = static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("UPDATE live SET score = " +
                               std::to_string(score) + " WHERE item = 0")
                        .ok());
        current[0] = score;
        int ops = static_cast<int>(rng.Uniform(3));
        for (int op = 0; op < ops; ++op) {
          int64_t item = 1 + static_cast<int64_t>(rng.Uniform(items));
          if (!current.count(item)) continue;  // deleted items stay gone
          if (rng.Uniform(4) == 0) {
            EXPECT_TRUE(f.data
                            ->Exec("DELETE FROM live WHERE item = " +
                                   std::to_string(item))
                            .ok());
            current.erase(item);
            continue;
          }
          score = static_cast<int64_t>(rng.Uniform(100));
          EXPECT_TRUE(f.data
                          ->Exec("UPDATE live SET score = " +
                                 std::to_string(score) +
                                 " WHERE item = " + std::to_string(item))
                          .ok());
          current[item] = score;
        }
      }
      if (s % (2 * live_period) == 0) {
        // Zone B round: in-place update on its own page.
        int64_t item = 50000 + static_cast<int64_t>(rng.Uniform(items));
        int64_t score = static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("UPDATE live SET score = " +
                               std::to_string(score) +
                               " WHERE item = " + std::to_string(item))
                        .ok());
        current[item] = score;
      }
    }
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(s));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
    f.model[*snap] = current;
  }
  return f;
}

class RqlPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RqlPropertyTest, SnapshotsMatchModel) {
  Fixture f = MakeFixture(GetParam() * 1000 + 17, 20, 12);
  for (retro::SnapshotId snap : f.snaps) {
    auto rows = f.data->Query("SELECT AS OF " + std::to_string(snap) +
                              " item, score FROM live ORDER BY item");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    const auto& expected = f.model[snap];
    ASSERT_EQ(rows->rows.size(), expected.size()) << "snapshot " << snap;
    size_t i = 0;
    for (const auto& [item, score] : expected) {
      EXPECT_EQ(rows->rows[i][0].integer(), item);
      EXPECT_EQ(rows->rows[i][1].integer(), score);
      ++i;
    }
  }
}

TEST_P(RqlPropertyTest, CollateDataEqualsBruteForce) {
  Fixture f = MakeFixture(GetParam() * 1000 + 31, 16, 10);
  ASSERT_TRUE(f.engine
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT item, score, current_snapshot() AS "
                                "sid FROM live",
                                "Result")
                  .ok());
  // Brute force from the model.
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> expected;
  for (retro::SnapshotId snap : f.snaps) {
    for (const auto& [item, score] : f.model[snap]) {
      expected.insert({item, score, snap});
    }
  }
  auto rows = f.meta->Query("SELECT item, score, sid FROM Result");
  ASSERT_TRUE(rows.ok());
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> actual;
  for (const Row& row : rows->rows) {
    actual.insert({row[0].integer(), row[1].integer(), row[2].integer()});
  }
  EXPECT_EQ(actual, expected);
}

TEST_P(RqlPropertyTest, AggregateVariableEqualsBruteForce) {
  Fixture f = MakeFixture(GetParam() * 1000 + 47, 16, 10);
  ASSERT_TRUE(f.engine
                  ->AggregateDataInVariable(
                      "SELECT snap_id FROM SnapIds",
                      "SELECT SUM(score) AS total FROM live", "Result",
                      "max")
                  .ok());
  int64_t expected = INT64_MIN;
  bool any = false;
  for (retro::SnapshotId snap : f.snaps) {
    if (f.model[snap].empty()) continue;  // SUM over empty is NULL: ignored
    int64_t total = 0;
    for (const auto& [item, score] : f.model[snap]) total += score;
    expected = std::max(expected, total);
    any = true;
  }
  auto value = f.meta->QueryScalar("SELECT * FROM Result");
  ASSERT_TRUE(value.ok());
  if (any) {
    EXPECT_EQ(value->integer(), expected);
  } else {
    EXPECT_TRUE(value->is_null());
  }
}

TEST_P(RqlPropertyTest, AggregateTableEqualsBruteForce) {
  Fixture f = MakeFixture(GetParam() * 1000 + 63, 16, 10);
  ASSERT_TRUE(f.engine
                  ->AggregateDataInTable("SELECT snap_id FROM SnapIds",
                                         "SELECT item, score FROM live",
                                         "Result", "(score,max)")
                  .ok());
  // Brute force: per item, max score over all snapshots where it appears.
  std::map<int64_t, int64_t> expected;
  for (retro::SnapshotId snap : f.snaps) {
    for (const auto& [item, score] : f.model[snap]) {
      auto it = expected.find(item);
      if (it == expected.end() || score > it->second) {
        expected[item] = score;
      }
    }
  }
  auto rows = f.meta->Query("SELECT item, score FROM Result ORDER BY item");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), expected.size());
  size_t i = 0;
  for (const auto& [item, score] : expected) {
    EXPECT_EQ(rows->rows[i][0].integer(), item) << "row " << i;
    EXPECT_EQ(rows->rows[i][1].integer(), score) << "row " << i;
    ++i;
  }
}

TEST_P(RqlPropertyTest, IntervalsEqualBruteForce) {
  Fixture f = MakeFixture(GetParam() * 1000 + 91, 16, 8);
  ASSERT_TRUE(f.engine
                  ->CollateDataIntoIntervals("SELECT snap_id FROM SnapIds",
                                             "SELECT item FROM live",
                                             "Result")
                  .ok());
  // Brute force: maximal runs of consecutive snapshots containing item.
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> expected;
  std::set<int64_t> all_items;
  for (const auto& [snap, items] : f.model) {
    for (const auto& [item, score] : items) all_items.insert(item);
  }
  for (int64_t item : all_items) {
    int64_t start = -1;
    int64_t prev = -1;
    for (retro::SnapshotId snap : f.snaps) {
      bool present = f.model[snap].count(item) > 0;
      if (present) {
        if (start < 0) {
          start = snap;
        } else if (static_cast<int64_t>(snap) != prev + 1) {
          expected.insert({item, start, prev});
          start = snap;
        }
        prev = snap;
      } else if (start >= 0) {
        expected.insert({item, start, prev});
        start = -1;
      }
    }
    if (start >= 0) expected.insert({item, start, prev});
  }
  auto rows = f.meta->Query(
      "SELECT item, start_snapshot, end_snapshot FROM Result");
  ASSERT_TRUE(rows.ok());
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> actual;
  for (const Row& row : rows->rows) {
    actual.insert({row[0].integer(), row[1].integer(), row[2].integer()});
  }
  EXPECT_EQ(actual, expected);
}

TEST_P(RqlPropertyTest, SubsetAndSkipQsMatchModel) {
  Fixture f = MakeFixture(GetParam() * 1000 + 113, 20, 10);
  // Qs selecting every third snapshot.
  ASSERT_TRUE(f.engine
                  ->CollateData(
                      "SELECT snap_id FROM SnapIds WHERE snap_id % 3 = 1",
                      "SELECT COUNT(*) AS c, current_snapshot() AS sid "
                      "FROM live",
                      "Result")
                  .ok());
  auto rows = f.meta->Query("SELECT c, sid FROM Result ORDER BY sid");
  ASSERT_TRUE(rows.ok());
  size_t i = 0;
  for (retro::SnapshotId snap : f.snaps) {
    if (snap % 3 != 1) continue;
    ASSERT_LT(i, rows->rows.size());
    EXPECT_EQ(rows->rows[i][0].integer(),
              static_cast<int64_t>(f.model[snap].size()))
        << "snapshot " << snap;
    EXPECT_EQ(rows->rows[i][1].integer(), static_cast<int64_t>(snap));
    ++i;
  }
  EXPECT_EQ(i, rows->rows.size());
}

TEST_P(RqlPropertyTest, AmortizationFlagsPreserveCollateOutput) {
  // The iteration-setup amortizations (the fast profile's incremental SPT,
  // Qq plan reuse and vectorized scans) are pure optimizations:
  // CollateData must produce byte-identical result tables with them
  // enabled, across randomized update/snapshot interleavings.
  Fixture f = MakeFixture(GetParam() * 1000 + 137, 18, 10);
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const std::string qq =
      "SELECT item, score, current_snapshot() AS sid FROM live";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out;
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  f.data->store()->ClearSnapshotCache();
  ASSERT_TRUE(f.engine->CollateData(qs, qq, "Baseline").ok());
  int64_t baseline_parses = f.engine->last_run_stats().qq_parse_count;
  EXPECT_EQ(baseline_parses, static_cast<int64_t>(f.snaps.size()));
  std::vector<std::string> baseline = dump("Baseline");

  f.engine->mutable_options()->profile = RqlProfile::kFast;
  f.data->store()->ClearSnapshotCache();
  ASSERT_TRUE(f.engine->CollateData(qs, qq, "Fast").ok());
  EXPECT_EQ(dump("Fast"), baseline);
  const RqlRunStats& stats = f.engine->last_run_stats();
  EXPECT_EQ(stats.qq_parse_count, 1);
  int64_t delta = 0;
  for (const RqlIterationStats& it : stats.iterations) {
    delta += it.spt_delta_entries;
  }
  EXPECT_GT(delta, 0);
}

TEST_P(RqlPropertyTest, TransientPagelogFaultsWithRetriesAreTransparent) {
  // Injected transient read failures on the page archive must be invisible
  // to CollateData when archive reads are retried: the result table is
  // byte-identical to the fault-free run. Without retries the run must
  // fail cleanly, leaving no partial result table behind.
  Fixture f = MakeFixture(GetParam() * 1000 + 151, 16, 10);
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const std::string qq =
      "SELECT item, score, current_snapshot() AS sid FROM live";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out;
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  f.data->store()->ClearSnapshotCache();
  ASSERT_TRUE(f.engine->CollateData(qs, qq, "Baseline").ok());
  std::vector<std::string> baseline = dump("Baseline");

  // One-shot read faults spread across the run; each first retry succeeds.
  for (uint64_t after : {2u, 5u, 9u, 14u}) {
    storage::FaultSpec spec;
    spec.op = storage::FaultOp::kRead;
    spec.kind = storage::FaultKind::kIoError;
    spec.glob = "*.pagelog";
    spec.after = after;
    f.env->Arm(spec);
  }
  f.engine->mutable_options()->archive_read_retries = 2;
  f.data->store()->ClearSnapshotCache();
  Status faulted = f.engine->CollateData(qs, qq, "Faulted");
  ASSERT_TRUE(faulted.ok()) << faulted.ToString();
  EXPECT_EQ(dump("Faulted"), baseline);
  EXPECT_GT(f.env->stats().faults_fired, 0u);
  EXPECT_GE(f.engine->last_run_stats().archive_read_retries, 1);

  // Fail-fast phase: a sticky fault with no retry budget must abort the
  // run without leaking a partial result table.
  f.engine->mutable_options()->archive_read_retries = 0;
  storage::FaultSpec sticky;
  sticky.op = storage::FaultOp::kRead;
  sticky.kind = storage::FaultKind::kIoError;
  sticky.glob = "*.pagelog";
  sticky.sticky = true;
  f.env->Arm(sticky);
  f.data->store()->ClearSnapshotCache();
  Status failed = f.engine->CollateData(qs, qq, "NoRetry");
  EXPECT_FALSE(failed.ok());
  f.env->DisarmAll();
  EXPECT_EQ(f.meta->catalog()->data().FindTable("NoRetry"), nullptr);

  // A persistent fault exhausts any retry budget and surfaces the same
  // Status the fail-fast run returned, again without a partial table.
  f.engine->mutable_options()->archive_read_retries = 2;
  f.env->Arm(sticky);
  f.data->store()->ClearSnapshotCache();
  Status exhausted = f.engine->CollateData(qs, qq, "Exhausted");
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.code(), failed.code())
      << exhausted.ToString() << " vs " << failed.ToString();
  f.env->DisarmAll();
  EXPECT_EQ(f.meta->catalog()->data().FindTable("Exhausted"), nullptr);
}

TEST_P(RqlPropertyTest, PageSharingFlagsPreserveAllMechanismOutputs) {
  // A run-scoped decoded-page cache and a run-scoped memo (a fresh
  // MemoTable) are pure optimizations: on a
  // sparse-update history every mechanism's result table must be
  // byte-identical with any combination of the two — alone, together,
  // and (for parallelizable mechanisms) under parallel workers — under both
  // profiles.
  // AggregateDataInVariable uses the non-idempotent `sum` fold so a
  // replayed iteration that contributed twice (or not at all) would be
  // caught.
  Fixture f = MakeSparseFixture(GetParam() * 1000 + 173, 24, 8, 4);
  const std::string qs = "SELECT snap_id FROM SnapIds";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << table << ": " << rows.status().ToString();
    std::vector<std::string> out;
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  // Every configuration below also checks the observability layer: the
  // registry delta taken around a run must equal the legacy RqlRunStats
  // counters exactly, whatever flags were active.
  retro::MetricsRegistry registry;
  auto expect_delta_matches = [&](const retro::MetricsRegistry::Snapshot&
                                      delta,
                                  const std::string& label) {
    const RqlRunStats& stats = f.engine->last_run_stats();
    EXPECT_EQ(delta.counter("rql.runs"), 1) << label;
    EXPECT_EQ(delta.counter("rql.iterations"),
              static_cast<int64_t>(stats.iterations.size()))
        << label;
    EXPECT_EQ(delta.counter("rql.iterations_skipped"),
              stats.iterations_skipped)
        << label;
    EXPECT_EQ(delta.counter("rql.shared_page_hits"),
              stats.shared_page_hits)
        << label;
    EXPECT_EQ(delta.counter("rql.coalesced_loads"), stats.coalesced_loads)
        << label;
    EXPECT_EQ(delta.counter("rql.qq_parse_count"), stats.qq_parse_count)
        << label;
    EXPECT_EQ(delta.counter("rql.total_us"), stats.TotalUs()) << label;
    int64_t qq_rows = 0, delta_pages = 0, plan_hits = 0;
    int64_t batches = 0, batch_rows = 0, batch_fallback = 0;
    for (const RqlIterationStats& it : stats.iterations) {
      qq_rows += it.qq_rows;
      delta_pages += it.delta_pages_scanned;
      plan_hits += it.plan_cache_hits;
      batches += it.batches_scanned;
      batch_rows += it.batch_rows;
      batch_fallback += it.batch_fallback_rows;
    }
    EXPECT_EQ(delta.counter("rql.qq_rows"), qq_rows) << label;
    EXPECT_EQ(delta.counter("rql.delta_pages_scanned"), delta_pages)
        << label;
    EXPECT_EQ(delta.counter("rql.plan_cache_hits"), plan_hits) << label;
    EXPECT_EQ(delta.counter("rql.batches_scanned"), batches) << label;
    EXPECT_EQ(delta.counter("rql.batch_rows"), batch_rows) << label;
    EXPECT_EQ(delta.counter("rql.batch_fallback_rows"), batch_fallback)
        << label;
  };

  struct Mech {
    const char* name;
    std::function<Status(const std::string&)> run;
  };
  const std::vector<Mech> mechs = {
      {"collate",
       [&](const std::string& t) {
         return f.engine->CollateData(qs, "SELECT item, score FROM live", t);
       }},
      {"aggvar",
       [&](const std::string& t) {
         return f.engine->AggregateDataInVariable(
             qs, "SELECT COUNT(*) AS c FROM live", t, "sum");
       }},
      {"aggtable",
       [&](const std::string& t) {
         return f.engine->AggregateDataInTable(
             qs, "SELECT item, score FROM live", t, "(score,max)");
       }},
      {"intervals",
       [&](const std::string& t) {
         return f.engine->CollateDataIntoIntervals(
             qs, "SELECT item FROM live", t);
       }},
  };

  // `cache` runs against a run-scoped decoded-page cache, cleared before
  // every run; `memo` against a run-scoped memo. Each runs under both
  // profiles.
  struct Config {
    const char* name;
    bool cache, memo;
    int workers;
  };
  const Config kConfigs[] = {
      {"none", false, false, 1},
      {"cache", true, false, 1},
      {"memo", false, true, 1},
      {"both", true, true, 1},
      {"both_parallel", true, true, 4},
  };
  sql::SharedScanCache run_cache({.max_bytes = 0});

  for (const Mech& m : mechs) {
    *f.engine->mutable_options() = RqlOptions{};
    f.engine->mutable_options()->metrics = &registry;
    f.data->store()->ClearSnapshotCache();
    std::string base_table = std::string("base_") + m.name;
    retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
    ASSERT_TRUE(m.run(base_table).ok()) << m.name;
    expect_delta_matches(registry.TakeSnapshot().DeltaFrom(before),
                         base_table);
    // Flags-off runs must not engage the new machinery at all.
    EXPECT_EQ(f.engine->last_run_stats().iterations_skipped, 0) << m.name;
    EXPECT_EQ(f.engine->last_run_stats().shared_page_hits, 0) << m.name;
    std::vector<std::string> baseline = dump(base_table);

    for (const Config& c : kConfigs) {
      for (RqlProfile profile :
           {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
        RqlOptions opts;
        run_cache.Clear();
        auto run_memo = std::make_unique<retro::MemoTable>();
        opts.profile = profile;
        opts.shared_scan_cache = c.cache ? &run_cache : nullptr;
        opts.memo = c.memo ? run_memo.get() : nullptr;
        opts.parallel_workers = c.workers;
        // Options are replaced wholesale above, so the registry has to be
        // re-installed for every configuration.
        opts.metrics = &registry;
        *f.engine->mutable_options() = opts;
        f.data->store()->ClearSnapshotCache();
        std::string table = std::string(m.name) + "_" + c.name + "_" +
                            RqlProfileName(profile);
        before = registry.TakeSnapshot();
        ASSERT_TRUE(m.run(table).ok()) << table;
        expect_delta_matches(registry.TakeSnapshot().DeltaFrom(before),
                             table);
        EXPECT_EQ(dump(table), baseline) << table;
        const RqlRunStats& stats = f.engine->last_run_stats();
        // Live changes every 4th snapshot only: the three quiet iterations
        // of each period must replay through the delta fast path, and
        // versions shared across the set must hit the decoded-page cache.
        if (c.cache) {
          EXPECT_GT(stats.shared_page_hits, 0) << table;
        }
        if (c.memo) {
          ExpectRunScopedMemoCounters(stats, profile == RqlProfile::kFast,
                                      c.workers, table);
          if (!stats.parallel) {
            EXPECT_GT(stats.iterations_skipped, 0) << table;
          }
        }
        int64_t skipped = 0;
        for (const RqlIterationStats& it : stats.iterations) {
          if (it.skipped) ++skipped;
        }
        EXPECT_EQ(skipped, stats.iterations_skipped) << table;
      }
    }
  }
}

TEST_P(RqlPropertyTest, SkipDisabledWhenQqUsesCurrentSnapshot) {
  // current_snapshot() makes the Qq result vary per snapshot even on
  // identical data: the engine must detect it, never take the memo's delta
  // fast path, and still produce the baseline output.
  Fixture f = MakeSparseFixture(GetParam() * 1000 + 191, 16, 6, 4);
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const std::string qq =
      "SELECT item, score, current_snapshot() AS sid FROM live";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out;
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  ASSERT_TRUE(f.engine->CollateData(qs, qq, "Baseline").ok());
  std::vector<std::string> baseline = dump("Baseline");

  sql::SharedScanCache run_cache({.max_bytes = 0});
  auto run_memo = std::make_unique<retro::MemoTable>();
  f.engine->mutable_options()->memo = run_memo.get();
  f.engine->mutable_options()->shared_scan_cache = &run_cache;
  f.data->store()->ClearSnapshotCache();
  ASSERT_TRUE(f.engine->CollateData(qs, qq, "Flagged").ok());
  EXPECT_EQ(dump("Flagged"), baseline);
  EXPECT_EQ(f.engine->last_run_stats().iterations_skipped, 0);
}

TEST_P(RqlPropertyTest, MemoizationPreservesAllMechanismOutputs) {
  // A memo is a pure optimization: for every mechanism, under every flag
  // combination it composes with (a run-scoped decoded-page cache, batch
  // execution, parallel workers), both the cold run that fills a memo and
  // the warm run that replays from it must be byte-identical to the
  // flags-off baseline — and the warm run must actually hit.
  // AggregateDataInVariable uses the non-idempotent `sum` fold so a
  // replayed iteration that contributed twice (or not at all) would be
  // caught.
  Fixture f = MakeSparseFixture(GetParam() * 1000 + 211, 24, 8, 4);
  const std::string qs = "SELECT snap_id FROM SnapIds";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << table << ": " << rows.status().ToString();
    std::vector<std::string> out;
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  retro::MetricsRegistry registry;
  auto memo_sums = [&](const RqlRunStats& stats) {
    struct Sums {
      int64_t hits = 0, misses = 0, evictions = 0;
    } s;
    for (const RqlIterationStats& it : stats.iterations) {
      s.hits += it.memo_hits;
      s.misses += it.memo_misses;
      s.evictions += it.memo_evictions;
    }
    return s;
  };
  // The registry delta taken around a run must equal the per-iteration
  // stats exactly, whatever flags were active.
  auto expect_memo_delta_matches =
      [&](const retro::MetricsRegistry::Snapshot& delta,
          const std::string& label) {
        auto s = memo_sums(f.engine->last_run_stats());
        EXPECT_EQ(delta.counter("rql.memo_hits"), s.hits) << label;
        EXPECT_EQ(delta.counter("rql.memo_misses"), s.misses) << label;
        EXPECT_EQ(delta.counter("rql.memo_evictions"), s.evictions) << label;
      };

  struct Mech {
    const char* name;
    std::function<Status(const std::string&)> run;
  };
  const std::vector<Mech> mechs = {
      {"collate",
       [&](const std::string& t) {
         return f.engine->CollateData(qs, "SELECT item, score FROM live", t);
       }},
      {"aggvar",
       [&](const std::string& t) {
         return f.engine->AggregateDataInVariable(
             qs, "SELECT COUNT(*) AS c FROM live", t, "sum");
       }},
      {"aggtable",
       [&](const std::string& t) {
         return f.engine->AggregateDataInTable(
             qs, "SELECT item, score FROM live", t, "(score,max)");
       }},
      {"intervals",
       [&](const std::string& t) {
         return f.engine->CollateDataIntoIntervals(
             qs, "SELECT item FROM live", t);
       }},
  };

  struct Config {
    const char* name;
    bool cache, fast;
    int workers;
  };
  const Config kConfigs[] = {
      {"memo", false, false, 1},
      {"memo_cache", true, false, 1},
      {"memo_fast", false, true, 1},
      {"memo_parallel", false, false, 4},
      {"memo_fast_parallel", false, true, 4},
      {"memo_all_flags", true, true, 1},
  };

  for (const Mech& m : mechs) {
    *f.engine->mutable_options() = RqlOptions{};
    f.data->store()->ClearSnapshotCache();
    std::string base_table = std::string("base_") + m.name;
    ASSERT_TRUE(m.run(base_table).ok()) << m.name;
    // Flags-off runs must not engage the memo at all.
    auto off = memo_sums(f.engine->last_run_stats());
    EXPECT_EQ(off.hits, 0) << m.name;
    EXPECT_EQ(off.misses, 0) << m.name;
    std::vector<std::string> baseline = dump(base_table);

    for (const Config& c : kConfigs) {
      // Every configuration gets its own memo, kept from the cold run to
      // the warm one, so cold/warm hit accounting is exact.
      auto memo = std::make_unique<retro::MemoTable>();
      RqlOptions opts;
      opts.memo = memo.get();
      // Run-scoped: cleared before the warm run below.
      sql::SharedScanCache run_cache({.max_bytes = 0});
      opts.shared_scan_cache = c.cache ? &run_cache : nullptr;
      opts.profile = c.fast ? RqlProfile::kFast : RqlProfile::kPaperFaithful;
      opts.parallel_workers = c.workers;
      opts.metrics = &registry;
      *f.engine->mutable_options() = opts;

      f.data->store()->ClearSnapshotCache();
      std::string table = std::string(m.name) + "_" + c.name;
      retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
      ASSERT_TRUE(m.run(table + "_cold").ok()) << table;
      expect_memo_delta_matches(registry.TakeSnapshot().DeltaFrom(before),
                                table + "_cold");
      EXPECT_EQ(dump(table + "_cold"), baseline) << table;
      auto cold = memo_sums(f.engine->last_run_stats());
      EXPECT_EQ(cold.hits, 0) << table;
      EXPECT_GT(cold.misses, 0) << table;
      EXPECT_GT(memo->entry_count(), 0u) << table;
      // Every iteration either executed (a miss) or replayed through the
      // delta fast path; only executed iterations parse Qq, and a kFast
      // run parses it once for all of them (once per worker in parallel).
      EXPECT_EQ(cold.misses + f.engine->last_run_stats().iterations_skipped,
                static_cast<int64_t>(
                    f.engine->last_run_stats().iterations.size()))
          << table;
      ExpectQqParses(f.engine->last_run_stats(), c.fast, cold.misses,
                     c.workers, table + "_cold");

      run_cache.Clear();
      f.data->store()->ClearSnapshotCache();
      before = registry.TakeSnapshot();
      ASSERT_TRUE(m.run(table + "_warm").ok()) << table;
      expect_memo_delta_matches(registry.TakeSnapshot().DeltaFrom(before),
                                table + "_warm");
      EXPECT_EQ(dump(table + "_warm"), baseline) << table;
      const RqlRunStats& stats = f.engine->last_run_stats();
      auto warm = memo_sums(stats);
      EXPECT_GT(warm.hits, 0) << table;
      // A replayed iteration parses nothing, sequential or parallel.
      ExpectQqParses(stats, c.fast, warm.misses, c.workers, table + "_warm");
      // Every iteration of the warm run replays: from the memo, or through
      // the delta fast path where the predecessor already proves it.
      EXPECT_EQ(warm.hits + stats.iterations_skipped,
                static_cast<int64_t>(stats.iterations.size()))
          << table;
      EXPECT_EQ(warm.misses, 0) << table;
    }
  }
}

TEST_P(RqlPropertyTest, AsyncPrefetchPreservesAllMechanismOutputs) {
  // The test id predates the deletion of the background prefetch pipeline;
  // the matrix it carried stays. Reruns against state that outlives a run
  // are pure optimizations: every mechanism's cold run and its warm rerun
  // must be byte-identical to the flags-off baseline under the fast
  // profile, a memo kept across the rerun, a store-scoped decoded-page
  // cache that is never cleared (across reruns, configurations and
  // mechanisms, as the daemon serves it), parallel workers, and all of
  // them stacked.
  Fixture f = MakeSparseFixture(GetParam() * 1000 + 229, 24, 8, 4);
  const std::string qs = "SELECT snap_id FROM SnapIds";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << table << ": " << rows.status().ToString();
    std::vector<std::string> out;
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  struct Mech {
    const char* name;
    std::function<Status(const std::string&)> run;
  };
  const std::vector<Mech> mechs = {
      {"collate",
       [&](const std::string& t) {
         return f.engine->CollateData(qs, "SELECT item, score FROM live", t);
       }},
      {"aggvar",
       [&](const std::string& t) {
         return f.engine->AggregateDataInVariable(
             qs, "SELECT COUNT(*) AS c FROM live", t, "sum");
       }},
      {"aggtable",
       [&](const std::string& t) {
         return f.engine->AggregateDataInTable(
             qs, "SELECT item, score FROM live", t, "(score,max)");
       }},
      {"intervals",
       [&](const std::string& t) {
         return f.engine->CollateDataIntoIntervals(
             qs, "SELECT item FROM live", t);
       }},
  };

  struct Config {
    const char* name;
    bool fast, memo, shared;
    int workers;
  };
  const Config kConfigs[] = {
      {"plain", false, false, false, 1},
      {"fast", true, false, false, 1},
      {"memo", false, true, false, 1},
      {"shared", false, false, true, 1},
      {"parallel", false, false, false, 4},
      {"all", true, true, true, 1},
  };

  sql::SharedScanCache shared_cache;
  for (const Mech& m : mechs) {
    *f.engine->mutable_options() = RqlOptions{};
    f.data->store()->ClearSnapshotCache();
    std::string base_table = std::string("base_") + m.name;
    ASSERT_TRUE(m.run(base_table).ok()) << m.name;
    std::vector<std::string> baseline = dump(base_table);

    for (const Config& c : kConfigs) {
      retro::MemoTable memo;
      RqlOptions opts;
      opts.profile = c.fast ? RqlProfile::kFast : RqlProfile::kPaperFaithful;
      if (c.memo) opts.memo = &memo;
      if (c.shared) opts.shared_scan_cache = &shared_cache;
      opts.parallel_workers = c.workers;
      *f.engine->mutable_options() = opts;

      std::string table = std::string(m.name) + "_" + c.name;
      for (const char* pass : {"_cold", "_warm"}) {
        f.data->store()->ClearSnapshotCache();
        ASSERT_TRUE(m.run(table + pass).ok()) << table << pass;
        EXPECT_EQ(dump(table + pass), baseline) << table << pass;
      }
      const RqlRunStats& stats = f.engine->last_run_stats();
      if (c.memo) {
        // The cold run published its delta fast-path replays too, so every
        // warm iteration replays.
        int64_t memo_hits = 0;
        for (const RqlIterationStats& it : stats.iterations) {
          memo_hits += it.memo_hits;
        }
        EXPECT_EQ(memo_hits + stats.iterations_skipped,
                  static_cast<int64_t>(stats.iterations.size()))
            << table;
      }
      if (c.shared && !c.memo) {
        // The cold run decoded every version the warm rerun reads.
        EXPECT_EQ(stats.scan_cache_misses, 0) << table;
      }
    }
  }
}

/// A hand-built history for the result folds' corner cases, over
/// src (g, n, s), with no declared column type enforced on g:
///   snapshot 1: duplicate groups 5 and NULL; group 1 as INTEGER 1 and as
///               REAL 1.0; Intervals duplicates (7, 'd') twice and
///               (2, 'k') beside (2.0, 'k'); 150 filler groups, so the
///               result tables span several heap pages;
///   snapshot 2: the first group-5 row's s grows to 1500 bytes, so MAX(s)
///               grows the first duplicate's result record past its full
///               page and moves it to a later rid; fillers 100..109
///               vanish;
///   snapshot 3: the vanished fillers return, and the INTEGER-1 row's s
///               grows too, moving group 1's first match;
///   snapshot 4: every n changes;
///   snapshot 5: only a side table changes, so memoized runs replay it.
Fixture MakeFoldFixture() {
  Fixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  auto exec = [&](const std::string& sql) {
    Status s = f.data->Exec(sql);
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
  };
  exec("CREATE TABLE src (g INTEGER, n INTEGER, s TEXT)");
  exec("CREATE TABLE side (x INTEGER)");
  exec("INSERT INTO src VALUES (5, 1, 'a'), (5, 2, 'b'), (NULL, 1, 'n'), "
       "(NULL, 2, 'm'), (1, 1, 'i'), (1.0, 2, 'r'), (7, 0, 'd'), "
       "(7, 0, 'd'), (2, 0, 'k'), (2.0, 0, 'k')");
  for (int i = 0; i < 150; ++i) {
    exec("INSERT INTO src VALUES (" + std::to_string(100 + i) + ", " +
         std::to_string(i) + ", 'f')");
  }
  const std::string big_z(1500, 'z');
  const std::string big_y(1500, 'y');
  const std::vector<std::string> rounds = {
      "",
      "UPDATE src SET s = '" + big_z + "' WHERE s = 'a'; "
      "DELETE FROM src WHERE g >= 100 AND g < 110",
      "UPDATE src SET s = '" + big_y + "' WHERE s = 'i'; "
      "INSERT INTO src VALUES (100, 0, 'f'), (101, 1, 'f'), (102, 2, 'f'), "
      "(103, 3, 'f'), (104, 4, 'f'), (105, 5, 'f'), (106, 6, 'f'), "
      "(107, 7, 'f'), (108, 8, 'f'), (109, 9, 'f')",
      "UPDATE src SET n = n + 1",
      "INSERT INTO side VALUES (1)",
  };
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (r > 0) exec("BEGIN; " + rounds[r]);
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(r));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
  }
  return f;
}

/// A history over src (g, n, s) whose hot iterations resize result
/// records both ways and append new groups behind them, so kFast's fold
/// both queues in-place overwrites and relocates or appends around them:
/// - SUM over a NULL n that turns INTEGER, and MAX over a TEXT that
///   lengthens, grow records past their slots;
/// - MIN over long TEXTs that turn short shrinks them in place, in the
///   same iterations that append long-TEXT groups, so an append may
///   compact the tail page around queued shrinks;
/// - a record that MIN shrank grows again, under SUM, past its slot but
///   not past its first size;
/// - two identical rows give duplicate keys (Qq is no GROUP BY).
/// The last snapshot changes only a side table, so memoized runs replay
/// it.
Fixture MakeResizingFoldFixture() {
  Fixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  auto exec = [&](const std::string& sql) {
    Status s = f.data->Exec(sql);
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
  };
  const std::string long_q(300, 'q');
  auto insert_groups = [&](int from, int to) {
    std::string values;
    for (int g = from; g < to; ++g) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(g) + ", " + std::to_string(g) + ", '" +
                long_q + std::to_string(g) + "')";
    }
    return "INSERT INTO src VALUES " + values;
  };
  exec("CREATE TABLE src (g INTEGER, n INTEGER, s TEXT)");
  exec("CREATE TABLE side (x INTEGER)");
  exec(insert_groups(200, 240));
  exec("INSERT INTO src VALUES (300, NULL, 'b'), (301, 1, 'd'), "
       "(301, 1, 'd'), (302, NULL, '" + long_q + "')");
  const std::vector<std::string> rounds = {
      "",
      "UPDATE src SET n = n + 1, s = 'a' WHERE g < 220; "
      "UPDATE src SET n = 7, s = 'bbbbbbbb' WHERE g = 300; "
      "UPDATE src SET s = 'e' WHERE g = 302; " +
          insert_groups(240, 260),
      "UPDATE src SET n = n + 1, s = 'c' WHERE g >= 220; "
      "UPDATE src SET n = 3 WHERE g = 302; " +
          insert_groups(260, 275),
      "INSERT INTO side VALUES (1)",
  };
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (r > 0) exec("BEGIN; " + rounds[r]);
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(r));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
  }
  return f;
}

/// A history over src (g, n, s) whose first snapshot lists `rows`, in
/// heap order, beside small INTEGER and NULL groups; every later snapshot
/// changes every n, the second also appends `late` rows (scanned after
/// every other row, so after the hot iteration's first updates), and the
/// last changes only a side table, so memoized runs replay it.
Fixture MakeUnorderableKeyFixture(const std::string& rows,
                                  const std::string& late = "") {
  Fixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  auto exec = [&](const std::string& sql) {
    Status s = f.data->Exec(sql);
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
  };
  exec("CREATE TABLE src (g INTEGER, n INTEGER, s TEXT)");
  exec("CREATE TABLE side (x INTEGER)");
  exec("INSERT INTO src VALUES " + rows +
       ", (1, 3, 'c'), (2, 4, 'd'), (NULL, 5, 'e')");
  const std::vector<std::string> rounds = {
      "",
      "UPDATE src SET n = n + 1" +
          (late.empty() ? "" : "; INSERT INTO src VALUES " + late),
      "UPDATE src SET n = n + 10", "INSERT INTO side VALUES (1)"};
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (r > 0) exec("BEGIN; " + rounds[r]);
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(r));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
  }
  return f;
}

/// "rid:record" per heap row of `table` in scan order, then every index
/// key. A rid names its page by the page's rank in scan order, since two
/// tables' page ids differ.
std::vector<std::string> DumpResultTable(Fixture& f,
                                         const std::string& table) {
  std::vector<std::string> out;
  const sql::CatalogData& catalog = f.meta->catalog()->data();
  const sql::TableInfo* info = catalog.FindTable(table);
  EXPECT_NE(info, nullptr) << table;
  if (info == nullptr) return out;
  std::map<storage::PageId, size_t> page_rank;
  auto rid_name = [&](sql::Rid rid) {
    auto rank = page_rank.try_emplace(sql::RidPage(rid), page_rank.size());
    return std::to_string(rank.first->second) + "." +
           std::to_string(sql::RidSlot(rid));
  };
  auto it = sql::HeapTable::Scan(f.meta->store(), info->root);
  for (; it.Valid(); it.Next()) {
    out.push_back(rid_name(it.rid()) + ":" + std::string(it.record()));
  }
  EXPECT_TRUE(it.status().ok()) << table;
  for (const sql::IndexInfo* index : catalog.TableIndexes(table)) {
    auto keys = sql::BTree::SeekFirst(f.meta->store(), index->root);
    EXPECT_TRUE(keys.ok()) << table;
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

/// Reruns `run` into `table`, the table the engine's last memoized run
/// wrote: the rerun keeps the table, so it folds nothing, and the table
/// still dumps as `expected`.
void ExpectKeptTable(Fixture& f,
                     const std::function<Status(const std::string&)>& run,
                     const std::string& table,
                     const std::vector<std::string>& expected) {
  ASSERT_TRUE(run(table).ok()) << table;
  const RqlRunStats& stats = f.engine->last_run_stats();
  EXPECT_TRUE(stats.result_reused) << table;
  EXPECT_FALSE(stats.iterations.empty()) << table;
  for (const RqlIterationStats& it : stats.iterations) {
    EXPECT_EQ(it.memo_hits, 1) << table;
    EXPECT_EQ(it.udf_us, 0) << table;
    EXPECT_EQ(it.result_probes + it.result_inserts + it.result_updates, 0)
        << table;
  }
  EXPECT_EQ(DumpResultTable(f, table), expected) << table;
}

/// kFast folds AggregateDataInTable's index probe through an in-memory
/// group directory instead of the result table's B-tree, and batches its
/// in-place writes per page. On `f`'s history (src (g, n, s)), each result
/// table must equal the paper-faithful run's: the same records at the
/// same rids in heap scan order, read with HeapTable::Scan on the
/// metadata store, the same `_rql_idx` keys, and the same
/// probe/insert/update counts. That holds with memoized replay off,
/// run-scoped (delta fast path) and through a shared memo (cold and
/// warm), and in the UDF form. CollateDataIntoIntervals probes under both
/// profiles; it is checked alongside. A memoized run's same-table rerun
/// keeps the table it left, for these and the two other mechanisms.
void ExpectFastFoldMatchesPaperFaithful(Fixture& f) {
  const std::string qs = "SELECT snap_id FROM SnapIds";
  struct Mech {
    const char* name;
    const char* udf;  // the UDF-form call, with %T for the table
    std::function<Status(const std::string&)> run;
  };
  const std::vector<Mech> mechs = {
      {"sum_max",
       "AggregateDataInTable(snap_id, 'SELECT g, n, s FROM src', '%T', "
       "'(n,sum):(s,max)')",
       [&](const std::string& t) {
         return f.engine->AggregateDataInTable(
             qs, "SELECT g, n, s FROM src", t, "(n,sum):(s,max)");
       }},
      {"avg_max",
       "AggregateDataInTable(snap_id, 'SELECT g, n, s FROM src', '%T', "
       "'(n,avg):(s,max)')",
       [&](const std::string& t) {
         return f.engine->AggregateDataInTable(
             qs, "SELECT g, n, s FROM src", t, "(n,avg):(s,max)");
       }},
      {"sum_min",
       "AggregateDataInTable(snap_id, 'SELECT g, n, s FROM src', '%T', "
       "'(n,sum):(s,min)')",
       [&](const std::string& t) {
         return f.engine->AggregateDataInTable(
             qs, "SELECT g, n, s FROM src", t, "(n,sum):(s,min)");
       }},
      {"intervals",
       "CollateDataIntoIntervals(snap_id, 'SELECT g, s FROM src', '%T')",
       [&](const std::string& t) {
         return f.engine->CollateDataIntoIntervals(
             qs, "SELECT g, s FROM src", t);
       }},
  };
  struct Counts {
    int64_t probes = 0, inserts = 0, updates = 0;
    bool operator==(const Counts& o) const {
      return probes == o.probes && inserts == o.inserts &&
             updates == o.updates;
    }
  };
  auto counts = [&]() {
    Counts c;
    for (const RqlIterationStats& it : f.engine->last_run_stats().iterations) {
      c.probes += it.result_probes;
      c.inserts += it.result_inserts;
      c.updates += it.result_updates;
    }
    return c;
  };

  enum class Replay { kOff, kRunScoped, kSharedMemo };
  for (const Mech& m : mechs) {
    *f.engine->mutable_options() = RqlOptions{};
    std::string base = std::string(m.name) + "_base";
    ASSERT_TRUE(m.run(base).ok()) << base;
    const std::vector<std::string> expected = DumpResultTable(f, base);
    const Counts expected_counts = counts();
    EXPECT_GT(expected_counts.probes, 0) << base;
    EXPECT_GT(expected_counts.updates, 0) << base;

    for (RqlProfile profile :
         {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
      for (Replay replay :
           {Replay::kOff, Replay::kRunScoped, Replay::kSharedMemo}) {
        std::string table = std::string(m.name) + "_" +
                            RqlProfileName(profile) + "_" +
                            std::to_string(static_cast<int>(replay));
        retro::MemoTable memo;
        RqlOptions opts;
        opts.profile = profile;
        if (replay != Replay::kOff) opts.memo = &memo;
        *f.engine->mutable_options() = opts;
        // A shared memo runs twice: the cold run fills it, the warm run
        // replays every iteration from it.
        std::string last;
        for (const char* pass : {"", "_warm"}) {
          if (*pass != '\0' && replay != Replay::kSharedMemo) continue;
          last = table + pass;
          ASSERT_TRUE(m.run(last).ok()) << last;
          EXPECT_FALSE(f.engine->last_run_stats().result_reused) << last;
          EXPECT_EQ(DumpResultTable(f, last), expected) << last;
          EXPECT_TRUE(counts() == expected_counts) << last;
          if (replay == Replay::kRunScoped) {
            EXPECT_GT(f.engine->last_run_stats().iterations_skipped, 0)
                << table;
          }
        }
        if (replay != Replay::kOff) ExpectKeptTable(f, m.run, last, expected);
      }

      // The UDF form folds one iteration per call of the driving SELECT.
      *f.engine->mutable_options() = RqlOptions{};
      f.engine->mutable_options()->profile = profile;
      ASSERT_TRUE(f.engine->RegisterUdfs().ok());
      std::string table =
          std::string(m.name) + "_udf_" + RqlProfileName(profile);
      std::string call = m.udf;
      call.replace(call.find("%T"), 2, table);
      Status s = f.meta->Exec("SELECT " + call + " FROM SnapIds");
      ASSERT_TRUE(s.ok()) << table << ": " << s.ToString();
      ASSERT_TRUE(f.engine->FinishUdfRuns().ok()) << table;
      EXPECT_EQ(DumpResultTable(f, table), expected) << table;
    }
  }

  // The other two mechanisms keep their tables too, each run answered by
  // two parallel workers.
  const std::vector<Mech> others = {
      {"collate", "",
       [&](const std::string& t) {
         return f.engine->CollateData(qs, "SELECT g, n, s FROM src", t);
       }},
      {"variable", "",
       [&](const std::string& t) {
         return f.engine->AggregateDataInVariable(
             qs, "SELECT COUNT(*) AS c FROM src", t, "sum");
       }},
  };
  for (const Mech& m : others) {
    *f.engine->mutable_options() = RqlOptions{};
    std::string base = std::string(m.name) + "_base";
    ASSERT_TRUE(m.run(base).ok()) << base;
    const std::vector<std::string> expected = DumpResultTable(f, base);
    for (RqlProfile profile :
         {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
      std::string table = std::string(m.name) + "_" + RqlProfileName(profile);
      auto memo = std::make_unique<retro::MemoTable>();
      RqlOptions opts;
      opts.profile = profile;
      opts.memo = memo.get();
      opts.parallel_workers = 2;
      *f.engine->mutable_options() = opts;
      ASSERT_TRUE(m.run(table).ok()) << table;
      EXPECT_TRUE(f.engine->last_run_stats().parallel) << table;
      EXPECT_EQ(DumpResultTable(f, table), expected) << table;
      ExpectKeptTable(f, m.run, table, expected);
    }
  }
}

TEST(RqlFoldPropertyTest, FastFoldIsByteIdenticalToPaperFaithful) {
  Fixture f = MakeFoldFixture();
  ExpectFastFoldMatchesPaperFaithful(f);
}

TEST(RqlFoldPropertyTest, ResizedRecordsFoldAsThePaperFaithfulRunDoes) {
  Fixture f = MakeResizingFoldFixture();
  ExpectFastFoldMatchesPaperFaithful(f);
}

TEST(RqlFoldPropertyTest, UnorderableKeysFoldAsTheProbeDoes) {
  // CompareRows is no strict weak order on these keys, so kFast's
  // directory hands the fold back to the index probe. REAL 2^53 equals
  // both INTEGER 2^53 and 2^53 + 1; a REAL NaN equals every number. The
  // last case's NaN arrives in a hot iteration, behind in-place updates
  // the hand-back must first write.
  struct Case {
    const char* rows;
    const char* late;
  };
  for (const Case& c :
       {Case{"(9007199254740993, 1, 'a'), (9007199254740992.0, 2, 'r'), "
             "(9007199254740992, 3, 'b')",
             ""},
        Case{"(CAST('nan' AS REAL), 1, 'z'), (5, 2, 'f'), (6, 3, 'g')", ""},
        Case{"(5, 2, 'f'), (6, 3, 'g')", "(CAST('nan' AS REAL), 1, 'z')"}}) {
    SCOPED_TRACE(std::string(c.rows) + " / " + c.late);
    Fixture f = MakeUnorderableKeyFixture(c.rows, c.late);
    ExpectFastFoldMatchesPaperFaithful(f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RqlPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace rql
