// MemoTable torture tests: fingerprint canonicalization, read-set digest
// order independence, LRU byte-bound eviction, aliasing and
// re-registration, first-publish-wins under concurrent publishers, the
// digest-collision guard, and the engine-level staleness guarantees —
// ingest inside vs. outside a recorded read set, TruncateHistory
// invalidation, a memo that outlives a reopen of the store it memoizes,
// and warm hits that replay without moving the run's cursor.

#include "rql/memo_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rql/rql.h"
#include "sql/fingerprint.h"
#include "storage/fault_env.h"

namespace rql::retro {

/// Publishes `entry` under `key_of`'s table key: a forged digest collision
/// when the two read sets differ.
struct MemoTableTestPeer {
  static MemoPublishResult PublishUnderKeyOf(
      MemoTable* table, const MemoEntry& key_of,
      std::shared_ptr<const MemoEntry> entry) {
    return table->PublishAs(MemoTable::KeyOf(key_of), std::move(entry));
  }
};

}  // namespace rql::retro

namespace rql {
namespace {

using retro::MemoEntry;
using retro::MemoPublishResult;
using retro::MemoTable;
using retro::MemoTableOptions;
using retro::PageToken;

uint64_t Fp(const std::string& sql, const std::string& salt) {
  auto fp = sql::QueryFingerprint(sql, salt);
  EXPECT_TRUE(fp.ok()) << sql << ": " << fp.status().ToString();
  return fp.ok() ? *fp : 0;
}

TEST(MemoFingerprintTest, CanonicalizationNormalizesWhitespaceAndCase) {
  const uint64_t base =
      Fp("SELECT item, score FROM live WHERE score > 10", "CollateData");
  EXPECT_EQ(base, Fp("select   item,\n\tscore  from LIVE  where score>10",
                     "CollateData"));
  EXPECT_EQ(base, Fp("Select Item, Score From Live Where (score > 10)",
                     "CollateData"));
}

TEST(MemoFingerprintTest, SemanticDifferencesChangeTheKey) {
  const std::string salt = "CollateData";
  const uint64_t base = Fp("SELECT item, score FROM live WHERE score > 10",
                           salt);
  // Another literal value, another predicate, another column order, and a
  // type-flipped literal must all produce distinct keys.
  EXPECT_NE(base,
            Fp("SELECT item, score FROM live WHERE score > 11", salt));
  EXPECT_NE(base,
            Fp("SELECT item, score FROM live WHERE item > 10", salt));
  EXPECT_NE(base,
            Fp("SELECT score, item FROM live WHERE score > 10", salt));
  EXPECT_NE(Fp("SELECT item FROM live WHERE item = 1", salt),
            Fp("SELECT item FROM live WHERE item = '1'", salt));
}

TEST(MemoFingerprintTest, MechanismSaltSeparatesKeys) {
  const std::string qq = "SELECT item, score FROM live";
  EXPECT_NE(Fp(qq, "CollateData"), Fp(qq, "AggregateDataInTable"));
  EXPECT_NE(Fp(qq, "CollateData"), Fp(qq, "AggregateDataInVariable"));
  EXPECT_NE(Fp(qq, "AggregateDataInTable"),
            Fp(qq, "CollateDataIntoIntervals"));
}

TEST(MemoFingerprintTest, AsOfShapeSeparatesKeys) {
  const std::string salt = "CollateData";
  const uint64_t absent = Fp("SELECT item FROM live", salt);
  const uint64_t lit3 = Fp("SELECT AS OF 3 item FROM live", salt);
  const uint64_t lit4 = Fp("SELECT AS OF 4 item FROM live", salt);
  const uint64_t param = Fp("SELECT AS OF ? item FROM live", salt);
  EXPECT_NE(absent, lit3);
  EXPECT_NE(lit3, lit4);  // a literal AS OF pins the snapshot: value counts
  EXPECT_NE(absent, param);
  EXPECT_NE(lit3, param);
}

TEST(MemoDigestTest, ReadSetDigestIsOrderIndependent) {
  std::vector<PageToken> a = {{7, 100}, {2, 50}, {9, 1}, {3, 3}};
  std::vector<PageToken> b = {{3, 3}, {9, 1}, {7, 100}, {2, 50}};
  EXPECT_EQ(MemoTable::ReadSetDigest(a), MemoTable::ReadSetDigest(b));
}

TEST(MemoDigestTest, VersionChangesChangeTheDigest) {
  std::vector<PageToken> a = {{2, 50}, {7, 100}};
  std::vector<PageToken> b = {{2, 50}, {7, 101}};
  std::vector<PageToken> c = {{2, 50}};
  std::vector<PageToken> d = {{2, 50}, {7, 3}};
  EXPECT_NE(MemoTable::ReadSetDigest(a), MemoTable::ReadSetDigest(b));
  EXPECT_NE(MemoTable::ReadSetDigest(a), MemoTable::ReadSetDigest(c));
  EXPECT_NE(MemoTable::ReadSetDigest(a), MemoTable::ReadSetDigest(d));
}

// ---------------------------------------------------------------------------
// Unit-level table tests.

std::shared_ptr<const MemoEntry> MakeEntry(uint64_t fp, retro::SnapshotId snap,
                                           uint64_t version_base,
                                           size_t payload_bytes = 64) {
  auto e = std::make_shared<MemoEntry>();
  e->fingerprint = fp;
  e->snapshot = snap;
  e->read_set = {{1, version_base}, {2, version_base + 1}};
  e->columns = {"item", "score"};
  e->rows = {std::string(payload_bytes, 'r'),
             std::string(payload_bytes, 's')};
  return e;
}

TEST(MemoTableTest, PublishProbeRoundTripAndPersistence) {
  MemoTable table;
  auto e1 = MakeEntry(10, 1, 100);
  auto e2 = MakeEntry(20, 2, 200);
  const MemoPublishResult p1 = table.Publish(e1);
  const MemoPublishResult p2 = table.Publish(e2);
  EXPECT_TRUE(p1.inserted);
  EXPECT_TRUE(p2.inserted);
  EXPECT_EQ(table.entry_count(), 2u);
  EXPECT_EQ(table.bytes(),
            MemoTable::EntryBytes(*e1) + MemoTable::EntryBytes(*e2));

  auto hit = table.Probe(10, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows, e1->rows);
  EXPECT_EQ(hit->columns, e1->columns);
  EXPECT_EQ(table.Probe(10, 2), nullptr);  // registered per snapshot
  EXPECT_EQ(table.Probe(99, 1), nullptr);

  // The table shares ownership of what it stores: entries persist for its
  // lifetime after every publisher and prober has let go of them.
  const std::vector<std::string> rows = e1->rows;
  e1.reset();
  e2.reset();
  hit.reset();
  auto again = table.Probe(10, 1);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->rows, rows);
  ASSERT_NE(table.Probe(20, 2), nullptr);
}

TEST(MemoTableTest, FirstPublishWinsAndAliasesSnapshots) {
  MemoTable table;
  auto first = MakeEntry(10, 1, 100);
  auto dup = MakeEntry(10, 5, 100);  // same key, later snapshot
  EXPECT_TRUE(table.Publish(first).inserted);
  EXPECT_FALSE(table.Publish(dup).inserted);
  // The duplicate registers an alias; its rows are not stored again.
  EXPECT_EQ(table.entry_count(), 1u);
  EXPECT_EQ(table.bytes(), MemoTable::EntryBytes(*first));
  // Both snapshots resolve to the first publisher's entry.
  EXPECT_EQ(table.Probe(10, 1), first);
  EXPECT_EQ(table.Probe(10, 5), first);
}

TEST(MemoTableTest, RepublishedSnapshotErasesSupersededEntry) {
  // Snapshot 1 publishes under read set A, then (its data changed) under
  // read set B. Nothing probes to A any more, so A must leave the table.
  MemoTable table;
  auto a = MakeEntry(10, 1, 100);
  auto b = MakeEntry(10, 1, 300);
  EXPECT_TRUE(table.Publish(a).inserted);
  EXPECT_TRUE(table.Publish(b).inserted);
  EXPECT_EQ(table.entry_count(), 1u);
  EXPECT_EQ(table.bytes(), MemoTable::EntryBytes(*b));
  EXPECT_EQ(table.Probe(10, 1), b);
}

TEST(MemoTableTest, ReAliasedSnapshotErasesSupersededEntry) {
  // Snapshot 2 first publishes read set B, then re-publishes read set A,
  // which snapshot 1 already holds: the alias moves snapshot 2 to A, and
  // B, left unregistered, goes. A keeps both snapshots.
  MemoTable table;
  auto a = MakeEntry(10, 1, 100);
  auto b = MakeEntry(10, 2, 300);
  auto a_at_2 = MakeEntry(10, 2, 100);
  for (const auto& e : {a, b, a_at_2}) table.Publish(e);
  EXPECT_EQ(table.entry_count(), 1u);
  EXPECT_EQ(table.bytes(), MemoTable::EntryBytes(*a));
  EXPECT_EQ(table.Probe(10, 2), a);
  EXPECT_EQ(table.Probe(10, 1), a);
}

TEST(MemoTableTest, LruByteBoundEvictsColdEntries) {
  auto probe_entry = MakeEntry(1, 1, 10, 256);
  MemoTableOptions opts;
  opts.max_bytes = 4 * MemoTable::EntryBytes(*probe_entry);
  MemoTable table(opts);

  int64_t evictions = 0;
  for (uint64_t fp = 1; fp <= 8; ++fp) {
    evictions += table.Publish(MakeEntry(fp, static_cast<retro::SnapshotId>(fp),
                                         fp * 10, 256))
                     .evictions;
    // Keep fp=2 hot so recency, not insertion order, decides eviction.
    if (fp >= 2) {
      ASSERT_NE(table.Probe(2, 2), nullptr);
    }
  }
  EXPECT_GT(evictions, 0);
  EXPECT_EQ(evictions, table.evictions());
  EXPECT_LE(table.bytes(), opts.max_bytes);
  EXPECT_LT(table.entry_count(), 8u);
  // The hot entry and the newest survive; the coldest was evicted.
  EXPECT_NE(table.Probe(2, 2), nullptr);
  EXPECT_NE(table.Probe(8, 8), nullptr);
  EXPECT_EQ(table.Probe(1, 1), nullptr);
  EXPECT_EQ(table.Probe(3, 3), nullptr);
}

TEST(MemoTableTest, PerSnapshotEntriesNeverAlias) {
  MemoTable table;
  auto at4 = std::make_shared<MemoEntry>(*MakeEntry(10, 4, 100));
  at4->per_snapshot = true;
  auto at5 = std::make_shared<MemoEntry>(*at4);
  at5->snapshot = 5;
  at5->rows = {"five"};
  EXPECT_TRUE(table.Publish(at4).inserted);
  // An identical read set, yet its own entry.
  EXPECT_TRUE(table.Publish(at5).inserted);
  EXPECT_EQ(table.entry_count(), 2u);
  ASSERT_NE(table.Probe(10, 4), nullptr);
  EXPECT_TRUE(table.Probe(10, 4)->per_snapshot);
  EXPECT_EQ(table.Probe(10, 4)->rows, at4->rows);
  EXPECT_EQ(table.Probe(10, 5)->rows, at5->rows);
}

TEST(MemoTableTest, InvalidateBelowDropsRegistrationsPersistently) {
  MemoTable table;
  for (uint64_t fp = 1; fp <= 4; ++fp) {
    table.Publish(
        MakeEntry(fp, static_cast<retro::SnapshotId>(fp), fp * 10));
  }
  // Snapshot 3 also aliases snapshot 1's entry, which must then outlive
  // the drop of snapshot 1's registration.
  table.Publish(MakeEntry(1, 3, 10));
  table.InvalidateBelow(3);
  EXPECT_EQ(table.Probe(1, 1), nullptr);
  EXPECT_EQ(table.Probe(2, 2), nullptr);
  EXPECT_NE(table.Probe(1, 3), nullptr);
  EXPECT_NE(table.Probe(3, 3), nullptr);
  EXPECT_NE(table.Probe(4, 4), nullptr);
  EXPECT_EQ(table.entry_count(), 3u);

  // The drops are for good: later publishes for surviving snapshots, the
  // same read sets included, revive none of them.
  table.Publish(MakeEntry(1, 4, 10));
  table.Publish(MakeEntry(2, 3, 20));
  EXPECT_EQ(table.Probe(1, 1), nullptr);
  EXPECT_EQ(table.Probe(2, 2), nullptr);
  EXPECT_NE(table.Probe(1, 4), nullptr);
  EXPECT_NE(table.Probe(2, 3), nullptr);
}

TEST(MemoTableTest, ConcurrentPublishersAgreeOnFirstWin) {
  MemoTable table;
  constexpr int kThreads = 8;
  std::atomic<int> inserted{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // All threads publish the same key (fingerprint 7, same read set)
      // under distinct snapshots, interleaved with probes.
      const MemoPublishResult pub = table.Publish(
          MakeEntry(7, static_cast<retro::SnapshotId>(t + 1), 70));
      if (pub.inserted) ++inserted;
      auto hit = table.Probe(7, static_cast<retro::SnapshotId>(t + 1));
      if (hit == nullptr || hit->rows.size() != 2) ++failures;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(inserted.load(), 1);  // first publish wins, everyone else aliases
  EXPECT_EQ(table.entry_count(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(table.Probe(7, static_cast<retro::SnapshotId>(t + 1)),
              nullptr);
  }
}

TEST(MemoTableTest, DigestCollisionLeavesTheSnapshotUnregistered) {
  // A probe replays without revalidating, so an equal 64-bit key alone
  // must not alias a snapshot to an entry that reads other bytes.
  MemoTable table;
  auto stored = MakeEntry(10, 1, 100);
  auto other = MakeEntry(10, 2, 300);  // another read set, forged same key
  auto same = MakeEntry(10, 3, 100);   // the stored read set
  ASSERT_TRUE(table.Publish(stored).inserted);
  EXPECT_FALSE(
      retro::MemoTableTestPeer::PublishUnderKeyOf(&table, *stored, other)
          .inserted);
  EXPECT_EQ(table.Probe(10, 2), nullptr);
  EXPECT_EQ(table.entry_count(), 1u);
  retro::MemoTableTestPeer::PublishUnderKeyOf(&table, *stored, same);
  EXPECT_EQ(table.Probe(10, 3), stored);

  // A per_snapshot entry replays its own snapshot only, even over an
  // equal read set.
  auto own = std::make_shared<MemoEntry>(*MakeEntry(20, 4, 100));
  own->per_snapshot = true;
  auto next = std::make_shared<MemoEntry>(*own);
  next->snapshot = 5;
  ASSERT_TRUE(table.Publish(own).inserted);
  retro::MemoTableTestPeer::PublishUnderKeyOf(&table, *own, next);
  EXPECT_EQ(table.Probe(20, 5), nullptr);
  EXPECT_EQ(table.Probe(20, 4), own);
}

// ---------------------------------------------------------------------------
// Engine-level staleness: ingest inside vs. outside a recorded read set,
// and TruncateHistory invalidation.

constexpr char kQq[] = "SELECT item, score FROM live";
constexpr char kQsAll[] = "SELECT snap_id FROM SnapIds";

struct EngineFixture {
  std::unique_ptr<storage::InMemoryEnv> base =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<storage::FaultInjectionEnv> env =
      std::make_unique<storage::FaultInjectionEnv>(base.get());
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  std::unique_ptr<MemoTable> memo;
  std::vector<retro::SnapshotId> snaps;
};

/// `live` changes during the first `live_changes` snapshots, then goes
/// static while `churn` keeps changing — so the tail snapshots share
/// live's pages with the current database (tokens read under the store
/// lock) and the early ones map them to archived versions (tokens from the
/// SPT). Both resolutions get exercised.
EngineFixture MakeEngineFixture(int snapshots, int live_changes) {
  EngineFixture f;
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
  f.memo = std::make_unique<MemoTable>();
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    EXPECT_TRUE(f.data
                    ->Exec("INSERT INTO churn VALUES (" + std::to_string(s) +
                           ", " + std::to_string(s * 7) + ")")
                    .ok());
    if (s == 0) {
      for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(i) + ", " +
                               std::to_string(i * 3) + ")")
                        .ok());
      }
    } else if (s < live_changes) {
      EXPECT_TRUE(f.data
                      ->Exec("UPDATE live SET score = score + 1 "
                             "WHERE item = " + std::to_string(s % 10))
                      .ok());
    }
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(s));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
  }
  return f;
}

std::vector<std::string> Dump(EngineFixture* f, const std::string& table) {
  auto rows = f->meta->Query("SELECT * FROM " + table);
  EXPECT_TRUE(rows.ok()) << table << ": " << rows.status().ToString();
  std::vector<std::string> out;
  if (rows.ok()) {
    for (const sql::Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
  }
  return out;
}

Status RunMemoized(EngineFixture* f, const std::string& qs,
                   const std::string& table) {
  RqlOptions opts;
  opts.memo = f->memo.get();
  *f->engine->mutable_options() = opts;
  return f->engine->CollateData(qs, kQq, table);
}

Status RunPlain(EngineFixture* f, const std::string& qs,
                const std::string& table) {
  *f->engine->mutable_options() = RqlOptions{};
  return f->engine->CollateData(qs, kQq, table);
}

int64_t SumHits(const RqlRunStats& stats) {
  int64_t hits = 0;
  for (const RqlIterationStats& it : stats.iterations) hits += it.memo_hits;
  return hits;
}

int64_t SumMisses(const RqlRunStats& stats) {
  int64_t misses = 0;
  for (const RqlIterationStats& it : stats.iterations) {
    misses += it.memo_misses;
  }
  return misses;
}

/// Hits plus delta fast-path replays: every iteration that did not
/// execute Qq. On a memoized run, replays + misses = iterations.
int64_t SumReplays(const RqlRunStats& stats) {
  return SumHits(stats) + stats.iterations_skipped;
}

TEST(MemoStalenessTest, WarmRunReplaysEveryIteration) {
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunPlain(&f, kQsAll, "Base").ok());
  std::vector<std::string> baseline = Dump(&f, "Base");
  // Flags-off runs must not touch the memo counters at all.
  EXPECT_EQ(SumHits(f.engine->last_run_stats()), 0);
  EXPECT_EQ(SumMisses(f.engine->last_run_stats()), 0);

  // A cold run has nothing to hit; the static tail replays through the
  // delta fast path.
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());
  EXPECT_EQ(Dump(&f, "Cold"), baseline);
  EXPECT_EQ(SumHits(f.engine->last_run_stats()), 0);
  EXPECT_GT(f.engine->last_run_stats().iterations_skipped, 0);
  EXPECT_EQ(SumMisses(f.engine->last_run_stats()) +
                f.engine->last_run_stats().iterations_skipped,
            10);

  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Warm").ok());
  EXPECT_EQ(Dump(&f, "Warm"), baseline);
  EXPECT_EQ(SumReplays(f.engine->last_run_stats()), 10);
  EXPECT_EQ(SumMisses(f.engine->last_run_stats()), 0);
}

TEST(MemoStalenessTest, ColdRunPublishesFastPathReplays) {
  // The cold run replays its static tail through the delta fast path; the
  // shared memo must still learn every snapshot it visited. A descending
  // run rebases the snapshot set at every step, so it has no fast path:
  // each iteration must hit the memo.
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunPlain(&f, std::string(kQsAll) + " ORDER BY snap_id DESC",
                       "Base")
                  .ok());
  const std::vector<std::string> baseline = Dump(&f, "Base");

  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());
  EXPECT_GT(f.engine->last_run_stats().iterations_skipped, 0);
  const uint64_t fp = Fp(kQq, "CollateData");
  for (retro::SnapshotId snap : f.snaps) {
    EXPECT_NE(f.memo->Probe(fp, snap), nullptr) << snap;
  }

  ASSERT_TRUE(RunMemoized(&f, std::string(kQsAll) + " ORDER BY snap_id DESC",
                          "Desc")
                  .ok());
  EXPECT_EQ(Dump(&f, "Desc"), baseline);
  const RqlRunStats& stats = f.engine->last_run_stats();
  EXPECT_EQ(stats.iterations_skipped, 0);
  EXPECT_EQ(SumHits(stats), 10);
  EXPECT_EQ(SumMisses(stats), 0);
}

TEST(MemoStalenessTest, IngestOutsideReadSetKeepsHits) {
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunPlain(&f, kQsAll, "Base").ok());
  std::vector<std::string> baseline = Dump(&f, "Base");
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());

  // New ingest touching only `churn` — pages outside every recorded read
  // set. The old snapshots' live pages resolve exactly as before, so every
  // probe must still validate.
  ASSERT_TRUE(f.data->Exec("BEGIN").ok());
  ASSERT_TRUE(f.data->Exec("INSERT INTO churn VALUES (999, 999)").ok());
  ASSERT_TRUE(f.engine->CommitWithSnapshot("after").ok());

  std::string qs_prefix = std::string(kQsAll) + " WHERE snap_id <= " +
                          std::to_string(f.snaps.back());
  ASSERT_TRUE(RunMemoized(&f, qs_prefix, "Warm").ok());
  EXPECT_EQ(Dump(&f, "Warm"), baseline);
  EXPECT_EQ(SumReplays(f.engine->last_run_stats()), 10);
  EXPECT_EQ(SumMisses(f.engine->last_run_stats()), 0);
}

TEST(MemoStalenessTest, IngestInsideReadSetKeepsEarlierSnapshotsValid) {
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunPlain(&f, kQsAll, "Base").ok());
  std::vector<std::string> baseline = Dump(&f, "Base");
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());

  // Rewrite a live page the tail snapshots share with the current state.
  // The update archives it, but no declared snapshot's bytes change, and
  // the token names the bytes (the snapshot they start at), not where they
  // live: every probe still validates, and the replayed results stay
  // byte-identical.
  ASSERT_TRUE(f.data->Exec("BEGIN").ok());
  ASSERT_TRUE(
      f.data->Exec("UPDATE live SET score = score + 100 WHERE item = 0")
          .ok());
  auto rewrite = f.engine->CommitWithSnapshot("rewrite");
  ASSERT_TRUE(rewrite.ok());

  std::string qs_prefix = std::string(kQsAll) + " WHERE snap_id <= " +
                          std::to_string(f.snaps.back());
  ASSERT_TRUE(RunMemoized(&f, qs_prefix, "Warm").ok());
  EXPECT_EQ(Dump(&f, "Warm"), baseline);
  const RqlRunStats& stats = f.engine->last_run_stats();
  EXPECT_EQ(SumMisses(stats), 0);
  EXPECT_EQ(SumReplays(stats), 10);

  // The snapshot declared after the rewrite reads the new bytes: it alone
  // executes, and its result matches a run without a memo.
  ASSERT_TRUE(RunPlain(&f, kQsAll, "BaseAll").ok());
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "WarmAll").ok());
  EXPECT_EQ(Dump(&f, "WarmAll"), Dump(&f, "BaseAll"));
  EXPECT_EQ(SumMisses(f.engine->last_run_stats()), 1);
  EXPECT_EQ(SumReplays(f.engine->last_run_stats()), 10);
}

TEST(MemoStalenessTest, TruncateHistoryInvalidatesDroppedSnapshots) {
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());
  const uint64_t fp = Fp(kQq, "CollateData");
  for (retro::SnapshotId snap : f.snaps) {
    ASSERT_NE(f.memo->Probe(fp, snap), nullptr) << snap;
  }

  // TruncateHistory must purge the dropped snapshots' registrations (the
  // engine's options carry the memo, so the hook fires) — probing them can
  // never validate again.
  retro::SnapshotId keep = f.snaps[5];
  f.engine->mutable_options()->memo = f.memo.get();
  ASSERT_TRUE(f.engine->TruncateHistory(keep).ok());
  for (retro::SnapshotId snap : f.snaps) {
    if (snap < keep) {
      EXPECT_EQ(f.memo->Probe(fp, snap), nullptr) << snap;
    } else {
      EXPECT_NE(f.memo->Probe(fp, snap), nullptr) << snap;
    }
  }

  // Post-truncation runs only see surviving snapshots (SnapIds was purged)
  // and must match a memo-less recomputation byte for byte; hits are only
  // allowed where the recorded versions are still live, which the result
  // comparison verifies implicitly (a stale replay would differ).
  ASSERT_TRUE(RunPlain(&f, kQsAll, "BaseAfter").ok());
  std::vector<std::string> baseline = Dump(&f, "BaseAfter");
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "WarmAfter").ok());
  EXPECT_EQ(Dump(&f, "WarmAfter"), baseline);
  const RqlRunStats& stats = f.engine->last_run_stats();
  EXPECT_EQ(static_cast<int>(stats.iterations.size()), 5);
  EXPECT_EQ(SumReplays(stats) + SumMisses(stats), 5);
}

TEST(MemoStalenessTest, TruncateHistoryKeepsSurvivorsValid) {
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());

  // Compaction moves every kept Pagelog record, but it keeps each
  // capture's start snapshot and each page's mod epoch, so the surviving
  // snapshots resolve to the tokens they recorded: the warm run replays
  // them all, byte-identical to a run without a memo.
  const retro::SnapshotId keep = f.snaps[5];
  f.engine->mutable_options()->memo = f.memo.get();
  ASSERT_TRUE(f.engine->TruncateHistory(keep).ok());
  ASSERT_TRUE(RunPlain(&f, kQsAll, "BaseAfter").ok());
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "WarmAfter").ok());
  EXPECT_EQ(Dump(&f, "WarmAfter"), Dump(&f, "BaseAfter"));
  const RqlRunStats& stats = f.engine->last_run_stats();
  EXPECT_EQ(static_cast<int>(stats.iterations.size()), 5);
  EXPECT_EQ(SumMisses(stats), 0);
  EXPECT_EQ(SumReplays(stats), 5);
}

TEST(MemoStalenessTest, MemoOutlivesStoreReopen) {
  // The memo lives and dies with the store's files, not with one handle
  // on them: a memo kept across a close and reopen of the data and meta
  // databases still serves the reopened store.
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunPlain(&f, kQsAll, "Base").ok());
  const std::vector<std::string> baseline = Dump(&f, "Base");
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());
  // An owner update archives live's shared pages before the reopen.
  ASSERT_TRUE(
      f.data->Exec("UPDATE live SET score = score + 100 WHERE item = 0")
          .ok());

  // Reopen: the store recovers its mod epochs from the Maplog, so the
  // tokens the memo recorded name the same bytes as before.
  const size_t entries = f.memo->entry_count();
  f.engine.reset();
  f.meta.reset();
  f.data.reset();
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_EQ(f.memo->entry_count(), entries);

  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Warm").ok());
  EXPECT_EQ(Dump(&f, "Warm"), baseline);
  const RqlRunStats& stats = f.engine->last_run_stats();
  // A new engine keeps no earlier table, so every iteration replays: from
  // the memo or through the delta fast path. Qq never executes.
  EXPECT_FALSE(stats.result_reused);
  EXPECT_EQ(SumMisses(stats), 0);
  EXPECT_EQ(SumReplays(stats), 10);
  EXPECT_GT(SumHits(stats), 0);
  EXPECT_EQ(stats.qq_parse_count, 0);
}

TEST(MemoStalenessTest, DbSharedReadSetsNeverAliasAcrossSnapshots) {
  // The newest snapshot reads `live` entirely from db-shared pages. An
  // update then captures item 0's page and a new snapshot reads it
  // db-shared again: the same pages, but item 0's page holds content that
  // starts at the new snapshot, so its token differs. Aliasing the new
  // snapshot to the old entry would replay item 0's old score.
  EngineFixture f = MakeEngineFixture(10, 5);
  const std::string newest = std::to_string(f.snaps.back());
  ASSERT_TRUE(RunMemoized(&f, std::string(kQsAll) + " WHERE snap_id = " +
                                  newest,
                          "Old")
                  .ok());
  ASSERT_TRUE(f.data->Exec("BEGIN").ok());
  ASSERT_TRUE(
      f.data->Exec("UPDATE live SET score = score + 100 WHERE item = 0")
          .ok());
  auto next = f.engine->CommitWithSnapshot("rewrite");
  ASSERT_TRUE(next.ok());
  const std::string qs_next =
      std::string(kQsAll) + " WHERE snap_id = " + std::to_string(*next);
  for (const char* table : {"New1", "New2"}) {
    ASSERT_TRUE(RunMemoized(&f, qs_next, table).ok());
    auto score = f.meta->QueryScalar(std::string("SELECT score FROM ") +
                                     table + " WHERE item = 0");
    ASSERT_TRUE(score.ok()) << score.status().ToString();
    EXPECT_EQ(score->integer(), 100) << table;
  }
  // The second run replayed the new snapshot's own entry.
  EXPECT_EQ(SumHits(f.engine->last_run_stats()), 1);
}

// ---------------------------------------------------------------------------
// A registration is a proof: warm hits replay without touching the run's
// cursor, and stay exact through every event that changes the store.

/// The four mechanisms over `qs`, into `table`; AggregateDataInVariable
/// folds the non-idempotent `sum`, so a lost or doubled replay shows.
const std::vector<std::pair<const char*,
                            std::function<Status(RqlEngine*,
                                                 const std::string& qs,
                                                 const std::string& table)>>>
    kMechanisms = {
        {"collate",
         [](RqlEngine* e, const std::string& qs, const std::string& t) {
           return e->CollateData(qs, kQq, t);
         }},
        {"aggvar",
         [](RqlEngine* e, const std::string& qs, const std::string& t) {
           return e->AggregateDataInVariable(
               qs, "SELECT SUM(score) AS s FROM live", t, "sum");
         }},
        {"aggtable",
         [](RqlEngine* e, const std::string& qs, const std::string& t) {
           return e->AggregateDataInTable(qs, kQq, t, "(score,max)");
         }},
        {"intervals",
         [](RqlEngine* e, const std::string& qs, const std::string& t) {
           return e->CollateDataIntoIntervals(qs, kQq, t);
         }},
};

/// Maplog pages plus delta pages: what stepping the run's cursor reads.
int64_t SumCursorPages(const RqlRunStats& stats) {
  int64_t pages = 0;
  for (const RqlIterationStats& it : stats.iterations) {
    pages += it.maplog_pages + it.delta_pages_scanned;
  }
  return pages;
}

/// Closes and reopens the fixture's data and meta databases, keeping the
/// memo: a later state of the same store.
void ReopenStore(EngineFixture* f) {
  f->engine.reset();
  f->meta.reset();
  f->data.reset();
  auto data = sql::Database::Open(f->env.get(), "data");
  auto meta = sql::Database::Open(f->env.get(), "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  f->data = std::move(*data);
  f->meta = std::move(*meta);
  f->engine = std::make_unique<RqlEngine>(f->data.get(), f->meta.get());
}

/// Every mechanism, memo-less and then warm: sequentially, with two
/// workers, and (CollateData) in the UDF form. Each warm run must equal
/// the memo-less one byte for byte and answer every iteration from the
/// memo, without a cursor step: no Maplog page and no delta page.
void ExpectWarmRunsExact(EngineFixture* f, const std::string& label) {
  static int round = 0;
  ++round;
  for (const auto& [name, run] : kMechanisms) {
    const std::string tag = std::string(name) + std::to_string(round);
    *f->engine->mutable_options() = RqlOptions{};
    ASSERT_TRUE(run(f->engine.get(), kQsAll, "Plain" + tag).ok())
        << label << " " << name;
    const std::vector<std::string> oracle = Dump(f, "Plain" + tag);
    const size_t iterations = f->engine->last_run_stats().iterations.size();
    // The first warm run publishes any snapshot declared since the last
    // round; from then on every iteration hits, sequential or parallel.
    // Each run writes its own table, so none keeps an earlier one.
    for (int pass = 0; pass < 3; ++pass) {
      RqlOptions opts;
      opts.memo = f->memo.get();
      opts.parallel_workers = pass == 2 ? 2 : 1;
      *f->engine->mutable_options() = opts;
      const std::string table = "Warm" + tag + "p" + std::to_string(pass);
      const Status s = run(f->engine.get(), kQsAll, table);
      ASSERT_TRUE(s.ok()) << label << " " << name << ": " << s.ToString();
      EXPECT_EQ(Dump(f, table), oracle) << label << " " << name;
      if (pass == 0) continue;
      const RqlRunStats& stats = f->engine->last_run_stats();
      EXPECT_FALSE(stats.result_reused);
      EXPECT_EQ(SumHits(stats), static_cast<int64_t>(iterations))
          << label << " " << name << " pass " << pass;
      EXPECT_EQ(SumCursorPages(stats), 0)
          << label << " " << name << " pass " << pass;
    }
  }
  // The UDF form answers each call through the same replay.
  RqlOptions opts;
  opts.memo = f->memo.get();
  *f->engine->mutable_options() = opts;
  ASSERT_TRUE(f->engine->RegisterUdfs().ok());
  const std::string udf = "Udf" + std::to_string(round);
  ASSERT_TRUE(f->meta
                  ->Exec("SELECT CollateData(snap_id, '" +
                         std::string(kQq) + "', '" + udf +
                         "') FROM SnapIds")
                  .ok())
      << label;
  ASSERT_TRUE(f->engine->FinishUdfRuns().ok()) << label;
  const RqlRunStats& stats = f->engine->last_run_stats();
  EXPECT_EQ(SumHits(stats), static_cast<int64_t>(stats.iterations.size()))
      << label;
  EXPECT_EQ(SumCursorPages(stats), 0) << label;
  *f->engine->mutable_options() = RqlOptions{};
  ASSERT_TRUE(
      f->engine->CollateData(kQsAll, kQq, "PlainUdf" + std::to_string(round))
          .ok());
  EXPECT_EQ(Dump(f, udf), Dump(f, "PlainUdf" + std::to_string(round)))
      << label;
}

TEST(MemoSoundnessTest, WarmHitsStayExactThroughEveryStoreEvent) {
  EngineFixture f = MakeEngineFixture(12, 6);
  ExpectWarmRunsExact(&f, "cold");

  // Owner updates outside and inside the read sets change no declared
  // snapshot's bytes.
  ASSERT_TRUE(f.data->Exec("INSERT INTO churn VALUES (500, 500)").ok());
  ExpectWarmRunsExact(&f, "update outside");
  ASSERT_TRUE(
      f.data->Exec("UPDATE live SET score = score + 100 WHERE item < 5")
          .ok());
  ExpectWarmRunsExact(&f, "update inside");

  // A new declaration reads the updated bytes: its first run executes it.
  ASSERT_TRUE(f.engine->CommitWithSnapshot("declared").ok());
  ExpectWarmRunsExact(&f, "new declaration");

  // Truncation through the engine holding the memo drops the
  // registrations below; through an engine without it, they stay, but
  // SnapIds no longer selects their snapshots.
  f.engine->mutable_options()->memo = f.memo.get();
  ASSERT_TRUE(f.engine->TruncateHistory(f.snaps[3]).ok());
  ExpectWarmRunsExact(&f, "truncate with memo");
  *f.engine->mutable_options() = RqlOptions{};
  ASSERT_TRUE(f.engine->TruncateHistory(f.snaps[6]).ok());
  const uint64_t fp = Fp(kQq, "CollateData");
  EXPECT_NE(f.memo->Probe(fp, f.snaps[5]), nullptr);
  ExpectWarmRunsExact(&f, "truncate without memo");

  ReopenStore(&f);
  ExpectWarmRunsExact(&f, "reopen");
}

TEST(MemoSoundnessTest, SnapshotTruncatedBehindTheMemosBackFailsNotFound) {
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());
  ASSERT_TRUE(f.meta->Exec("CREATE TABLE Ids (snap_id INTEGER)").ok());
  ASSERT_TRUE(f.meta
                  ->Exec("INSERT INTO Ids VALUES (" +
                         std::to_string(f.snaps[2]) + ")")
                  .ok());
  // An engine without the memo truncates: snapshot 3's registration
  // stays, but its bytes are gone.
  *f.engine->mutable_options() = RqlOptions{};
  ASSERT_TRUE(f.engine->TruncateHistory(f.snaps[5]).ok());
  const uint64_t fp = Fp(kQq, "CollateData");
  ASSERT_NE(f.memo->Probe(fp, f.snaps[2]), nullptr);

  const Status plain = RunPlain(&f, "SELECT snap_id FROM Ids", "Plain");
  EXPECT_TRUE(plain.IsNotFound()) << plain.ToString();
  const Status memoized =
      RunMemoized(&f, "SELECT snap_id FROM Ids", "Memoized");
  EXPECT_TRUE(memoized.IsNotFound()) << memoized.ToString();
  EXPECT_EQ(SumHits(f.engine->last_run_stats()), 0);
}

TEST(MemoSoundnessTest, MissAfterHitsDiffsAgainstTheLastHit) {
  // live is static from snapshot 5 on. The memo knows snapshots 1-8; a
  // run over 1-10 hits those, leaving its cursor unmoved, and then misses
  // at 9. The step to 9 must start at 8, the last hit, so its delta
  // (churn only) misses 8's read set and the fast path replays 9 and 10.
  EngineFixture f = MakeEngineFixture(10, 5);
  const std::string first8 =
      std::string(kQsAll) + " WHERE snap_id <= " + std::to_string(f.snaps[7]);
  ASSERT_TRUE(RunMemoized(&f, first8, "Cold").ok());
  ASSERT_TRUE(RunPlain(&f, kQsAll, "Base").ok());
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Warm").ok());
  EXPECT_EQ(Dump(&f, "Warm"), Dump(&f, "Base"));
  const RqlRunStats& stats = f.engine->last_run_stats();
  EXPECT_EQ(SumHits(stats), 8);
  EXPECT_EQ(stats.iterations_skipped, 2);
  EXPECT_EQ(SumMisses(stats), 0);
  EXPECT_EQ(stats.qq_parse_count, 0);
  // The hits stepped nothing: the seek to 8 and the steps to 9 and 10
  // belong to the two replays.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(stats.iterations[i].maplog_pages, 0) << i;
  }
}

TEST(MemoConcurrencyTest, TwoEnginesRunScopedMemoMatchSequentialOracle) {
  // Two engines on one store, each on its own thread, run rounds of
  // run-scoped memoized runs (a fresh memo per round: every round
  // executes and records afresh). Each run owns its snapshot set and version recorder,
  // so neither engine's reads leak into the other's read set or delta.
  EngineFixture f = MakeEngineFixture(12, 6);
  ASSERT_TRUE(RunPlain(&f, kQsAll, "Oracle").ok());
  const std::vector<std::string> oracle = Dump(&f, "Oracle");
  ASSERT_TRUE(f.engine->AggregateDataInTable(kQsAll, kQq, "OracleAgg",
                                             "(score,max)")
                  .ok());
  const std::vector<std::string> oracle_agg = Dump(&f, "OracleAgg");

  constexpr int kEngines = 2;
  constexpr int kRounds = 4;
  struct Client {
    std::unique_ptr<sql::Database> data;
    std::unique_ptr<sql::Database> meta;
    std::unique_ptr<RqlEngine> engine;
    std::vector<std::vector<std::string>> collate, agg;
    Status status;
  };
  std::vector<Client> clients(kEngines);
  for (int c = 0; c < kEngines; ++c) {
    Client& cl = clients[c];
    auto data = sql::Database::Attach(f.data->store());
    auto meta = sql::Database::Open(f.env.get(), "cmeta" + std::to_string(c));
    ASSERT_TRUE(data.ok() && meta.ok());
    cl.data = std::move(*data);
    cl.meta = std::move(*meta);
    RqlOptions opts;
    opts.profile = c == 0 ? RqlProfile::kFast : RqlProfile::kPaperFaithful;
    cl.engine = std::make_unique<RqlEngine>(cl.data.get(), cl.meta.get(),
                                            opts);
    ASSERT_TRUE(cl.engine->EnsureSnapIds().ok());
    for (retro::SnapshotId snap : f.snaps) {
      ASSERT_TRUE(cl.meta
                      ->Exec("INSERT INTO SnapIds VALUES (" +
                             std::to_string(snap) + ", 't', '')")
                      .ok());
    }
  }
  auto dump = [](sql::Database* meta, const std::string& table) {
    std::vector<std::string> out;
    auto rows = meta->Query("SELECT * FROM " + table);
    if (rows.ok()) {
      for (const sql::Row& row : rows->rows) {
        out.push_back(sql::EncodeRow(row));
      }
    }
    return out;
  };
  std::vector<std::thread> threads;
  for (Client& cl : clients) {
    threads.emplace_back([&cl, &dump] {
      for (int r = 0; r < kRounds && cl.status.ok(); ++r) {
        auto memo = std::make_unique<retro::MemoTable>();
        cl.engine->mutable_options()->memo = memo.get();
        cl.status = cl.engine->CollateData(kQsAll, kQq, "C");
        if (!cl.status.ok()) break;
        const RqlRunStats& stats = cl.engine->last_run_stats();
        int64_t misses = 0, hits = 0;
        for (const RqlIterationStats& it : stats.iterations) {
          misses += it.memo_misses;
          hits += it.memo_hits;
        }
        if (hits != 0 || misses + stats.iterations_skipped !=
                             static_cast<int64_t>(stats.iterations.size())) {
          cl.status = Status::Internal("memo counter identity broken");
          break;
        }
        cl.collate.push_back(dump(cl.meta.get(), "C"));
        cl.status = cl.engine->AggregateDataInTable(kQsAll, kQq, "A",
                                                    "(score,max)");
        if (cl.status.ok()) cl.agg.push_back(dump(cl.meta.get(), "A"));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Client& cl : clients) {
    ASSERT_TRUE(cl.status.ok()) << cl.status.ToString();
    ASSERT_EQ(cl.collate.size(), static_cast<size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ(cl.collate[r], oracle) << "round " << r;
      EXPECT_EQ(cl.agg[r], oracle_agg) << "round " << r;
    }
  }
}

}  // namespace
}  // namespace rql
