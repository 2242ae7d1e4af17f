// MemoTable torture tests: fingerprint canonicalization, read-set digest
// order independence, LRU byte-bound eviction, persistence and recovery
// from corrupt / torn memo logs (FaultInjectionEnv is the substrate),
// first-publish-wins under concurrent publishers, and the engine-level
// staleness guarantees — ingest inside vs. outside a recorded read set,
// and TruncateHistory invalidation.

#include "rql/memo_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rql/rql.h"
#include "sql/fingerprint.h"
#include "storage/fault_env.h"

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
// Unit-level table tests, run through a FaultInjectionEnv so every test
// doubles as a transparency check for the fault layer.

struct MemoEnv {
  storage::InMemoryEnv base;
  storage::FaultInjectionEnv env{&base};
};

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

std::unique_ptr<MemoTable> MustOpen(storage::Env* env,
                                    const std::string& name,
                                    MemoTableOptions opts = {}) {
  auto table = MemoTable::Open(env, name, opts);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(*table);
}

TEST(MemoTableTest, PublishProbeRoundTripAndPersistence) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  auto e1 = MakeEntry(10, 1, 100);
  auto e2 = MakeEntry(20, 2, 200);
  auto p1 = table->Publish(e1);
  auto p2 = table->Publish(e2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_TRUE(p1->inserted);
  EXPECT_GT(p1->bytes_appended, 0u);
  EXPECT_EQ(table->entry_count(), 2u);

  auto hit = table->Probe(10, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows, e1->rows);
  EXPECT_EQ(hit->columns, e1->columns);
  EXPECT_EQ(table->Probe(10, 2), nullptr);  // registered per snapshot
  EXPECT_EQ(table->Probe(99, 1), nullptr);

  // Cross-process persistence: a fresh open recovers both entries.
  table.reset();
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->recovered_entries(), 2);
  EXPECT_EQ(reopened->truncated_tail_bytes(), 0u);
  auto again = reopened->Probe(10, 1);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->rows, e1->rows);
  ASSERT_NE(reopened->Probe(20, 2), nullptr);
}

TEST(MemoTableTest, FirstPublishWinsAndAliasesSnapshots) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  auto first = MakeEntry(10, 1, 100);
  auto dup = MakeEntry(10, 5, 100);  // same key, later snapshot
  auto p1 = table->Publish(first);
  auto p2 = table->Publish(dup);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_TRUE(p1->inserted);
  EXPECT_FALSE(p2->inserted);
  // The duplicate logs only a small alias record, not the rows again.
  EXPECT_LT(p2->bytes_appended, p1->bytes_appended);
  EXPECT_EQ(table->entry_count(), 1u);
  // Both snapshots resolve to the first publisher's entry.
  EXPECT_EQ(table->Probe(10, 1), table->Probe(10, 5));
  ASSERT_NE(table->Probe(10, 1), nullptr);

  // Aliases persist: after reopen both snapshots still resolve.
  table.reset();
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->entry_count(), 1u);
  EXPECT_NE(reopened->Probe(10, 1), nullptr);
  EXPECT_NE(reopened->Probe(10, 5), nullptr);
}

TEST(MemoTableTest, RepublishedSnapshotErasesSupersededEntry) {
  // Snapshot 1 publishes under read set A, then (its data changed) under
  // read set B. Nothing probes to A any more, so A must leave the table:
  // in a log-free table, in a logged one, and after replaying that log.
  MemoEnv m;
  auto a = MakeEntry(10, 1, 100);
  auto b = MakeEntry(10, 1, 300);
  for (bool logged : {false, true}) {
    SCOPED_TRACE(logged ? "logged" : "log-free");
    std::unique_ptr<MemoTable> table =
        logged ? MustOpen(&m.env, "m") : MemoTable::InMemory();
    ASSERT_TRUE(table->Publish(a).ok());
    auto pub = table->Publish(b);
    ASSERT_TRUE(pub.ok());
    EXPECT_TRUE(pub->inserted);
    EXPECT_EQ(table->entry_count(), 1u);
    EXPECT_EQ(table->bytes(), MemoTable::EntryBytes(*b));
    EXPECT_EQ(table->Probe(10, 1), b);
    if (!logged) {
      EXPECT_EQ(pub->bytes_appended, 0u);
      EXPECT_EQ(table->log_bytes(), 0u);
    }
  }
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->entry_count(), 1u);
  EXPECT_EQ(reopened->bytes(), MemoTable::EntryBytes(*b));
  ASSERT_NE(reopened->Probe(10, 1), nullptr);
  EXPECT_EQ(reopened->Probe(10, 1)->read_set, b->read_set);
}

TEST(MemoTableTest, ReAliasedSnapshotErasesSupersededEntry) {
  // Snapshot 2 first publishes read set B, then re-publishes read set A,
  // which snapshot 1 already holds: an alias record moves snapshot 2 to
  // A, and B, left unregistered, goes. A keeps both snapshots.
  MemoEnv m;
  auto a = MakeEntry(10, 1, 100);
  auto b = MakeEntry(10, 2, 300);
  auto a_at_2 = MakeEntry(10, 2, 100);
  {
    auto table = MustOpen(&m.env, "m");
    for (const auto& e : {a, b, a_at_2}) ASSERT_TRUE(table->Publish(e).ok());
    EXPECT_EQ(table->entry_count(), 1u);
    EXPECT_EQ(table->bytes(), MemoTable::EntryBytes(*a));
    EXPECT_EQ(table->Probe(10, 2), table->Probe(10, 1));
  }
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->entry_count(), 1u);
  EXPECT_EQ(reopened->bytes(), MemoTable::EntryBytes(*a));
  ASSERT_NE(reopened->Probe(10, 2), nullptr);
  EXPECT_EQ(reopened->Probe(10, 2)->read_set, a->read_set);
  EXPECT_EQ(reopened->Probe(10, 1), reopened->Probe(10, 2));
}

TEST(MemoTableTest, LruByteBoundEvictsColdEntries) {
  MemoEnv m;
  auto probe_entry = MakeEntry(1, 1, 10, 256);
  MemoTableOptions opts;
  opts.max_bytes = 4 * MemoTable::EntryBytes(*probe_entry);
  auto table = MustOpen(&m.env, "m", opts);

  int64_t evictions = 0;
  for (uint64_t fp = 1; fp <= 8; ++fp) {
    auto pub = table->Publish(
        MakeEntry(fp, static_cast<retro::SnapshotId>(fp), fp * 10, 256));
    ASSERT_TRUE(pub.ok()) << pub.status().ToString();
    evictions += pub->evictions;
    // Keep fp=2 hot so recency, not insertion order, decides eviction.
    if (fp >= 2) {
      ASSERT_NE(table->Probe(2, 2), nullptr);
    }
  }
  EXPECT_GT(evictions, 0);
  EXPECT_EQ(evictions, table->evictions());
  EXPECT_LE(table->bytes(), opts.max_bytes);
  EXPECT_LT(table->entry_count(), 8u);
  // The hot entry and the newest survive; the coldest was evicted.
  EXPECT_NE(table->Probe(2, 2), nullptr);
  EXPECT_NE(table->Probe(8, 8), nullptr);
  EXPECT_EQ(table->Probe(1, 1), nullptr);
  EXPECT_EQ(table->Probe(3, 3), nullptr);
}

/// Appends `v`'s low `bytes` bytes, little-endian (the memo log's layout).
void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// One framed log record of the format whose tokens were Pagelog
/// offsets: [magic "RMEM"][type][payload length][FNV-1a][payload], with
/// entry type 1 and alias type 2.
std::string OldFormatRecord(uint32_t type, const std::string& payload) {
  std::string rec;
  PutLe(&rec, 0x4D454D52, 4);
  PutLe(&rec, type, 4);
  PutLe(&rec, payload.size(), 8);
  PutLe(&rec, sql::Fnv1a64(payload), 8);
  return rec + payload;
}

TEST(MemoTableTest, OpenSkipsOldFormatRecords) {
  // An old entry for (fingerprint 10, snapshot 3) whose one page recorded
  // offset 2, and an alias registering snapshot 4 to it. Under
  // start-snapshot tokens, 2 names some content of page 1 too, so neither
  // record may come back.
  const std::vector<PageToken> read_set = {{1, 2}};
  std::string entry;
  PutLe(&entry, 10, 8);  // fingerprint
  PutLe(&entry, 3, 4);   // snapshot
  PutLe(&entry, 1, 4);   // read-set size
  PutLe(&entry, 1, 4);   // page
  PutLe(&entry, 2, 8);   // version: a Pagelog offset
  PutLe(&entry, 1, 4);   // one column, "c"
  PutLe(&entry, 1, 4);
  entry += "c";
  PutLe(&entry, 1, 8);  // one row, "r"
  PutLe(&entry, 1, 4);
  entry += "r";
  std::string alias;
  PutLe(&alias, 10, 8);
  PutLe(&alias, MemoTable::ReadSetDigest(read_set), 8);
  PutLe(&alias, 4, 4);
  const std::string log =
      OldFormatRecord(1, entry) + OldFormatRecord(2, alias);

  MemoEnv m;
  {
    auto file = m.env.OpenFile("m.memo");
    ASSERT_TRUE(file.ok());
    uint64_t off = 0;
    ASSERT_TRUE((*file)->Append(log.size(), log.data(), &off).ok());
  }
  auto table = MustOpen(&m.env, "m");
  EXPECT_EQ(table->recovered_entries(), 0);
  EXPECT_EQ(table->truncated_tail_bytes(), 0u);  // intact, just skipped
  EXPECT_EQ(table->entry_count(), 0u);
  EXPECT_EQ(table->Probe(10, 3), nullptr);
  EXPECT_EQ(table->Probe(10, 4), nullptr);

  // The same read set published in the current format is served, and a
  // reopen replays it without reviving the old alias.
  auto fresh = std::make_shared<MemoEntry>();
  fresh->fingerprint = 10;
  fresh->snapshot = 3;
  fresh->read_set = read_set;
  fresh->columns = {"c"};
  fresh->rows = {"R"};
  ASSERT_TRUE(table->Publish(fresh).ok());
  table.reset();
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->recovered_entries(), 1);
  auto hit = reopened->Probe(10, 3);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows, fresh->rows);
  EXPECT_EQ(reopened->Probe(10, 4), nullptr);
}

TEST(MemoTableTest, PerSnapshotEntriesNeverAlias) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  auto at4 = std::make_shared<MemoEntry>(*MakeEntry(10, 4, 100));
  at4->per_snapshot = true;
  auto at5 = std::make_shared<MemoEntry>(*at4);
  at5->snapshot = 5;
  at5->rows = {"five"};
  auto p4 = table->Publish(at4);
  auto p5 = table->Publish(at5);
  ASSERT_TRUE(p4.ok() && p5.ok());
  EXPECT_TRUE(p4->inserted);
  EXPECT_TRUE(p5->inserted);  // identical read set, yet its own entry
  EXPECT_EQ(table->entry_count(), 2u);
  EXPECT_EQ(table->Probe(10, 5)->rows, at5->rows);

  // The flag persists, so recovery keys the entries apart too.
  table.reset();
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->recovered_entries(), 2);
  ASSERT_NE(reopened->Probe(10, 4), nullptr);
  EXPECT_TRUE(reopened->Probe(10, 4)->per_snapshot);
  EXPECT_EQ(reopened->Probe(10, 4)->rows, at4->rows);
  EXPECT_EQ(reopened->Probe(10, 5)->rows, at5->rows);
}

TEST(MemoTableTest, TornTailIsTruncatedOnRecovery) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  for (uint64_t fp = 1; fp <= 3; ++fp) {
    ASSERT_TRUE(
        table->Publish(MakeEntry(fp, static_cast<retro::SnapshotId>(fp),
                                 fp * 10))
            .ok());
  }
  table.reset();

  // A torn append: 13 garbage bytes, not even a whole record header.
  auto file = m.env.OpenFile("m.memo");
  ASSERT_TRUE(file.ok());
  uint64_t off = 0;
  ASSERT_TRUE((*file)->Append(13, "garbage-tail!", &off).ok());
  uint64_t torn_size = (*file)->Size();
  file->reset();

  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->recovered_entries(), 3);
  EXPECT_EQ(reopened->truncated_tail_bytes(), 13u);
  EXPECT_EQ(reopened->log_bytes(), torn_size - 13);
  for (uint64_t fp = 1; fp <= 3; ++fp) {
    EXPECT_NE(reopened->Probe(fp, static_cast<retro::SnapshotId>(fp)),
              nullptr);
  }
  // The truncated log must stay appendable: publishing works again and the
  // new entry survives another reopen.
  ASSERT_TRUE(reopened->Publish(MakeEntry(4, 4, 40)).ok());
  reopened.reset();
  auto third = MustOpen(&m.env, "m");
  EXPECT_EQ(third->recovered_entries(), 4);
  EXPECT_EQ(third->truncated_tail_bytes(), 0u);
}

TEST(MemoTableTest, ChecksumMismatchTruncatesFromCorruption) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  uint64_t third_record_off = 0;
  for (uint64_t fp = 1; fp <= 3; ++fp) {
    if (fp == 3) third_record_off = table->log_bytes();
    ASSERT_TRUE(
        table->Publish(MakeEntry(fp, static_cast<retro::SnapshotId>(fp),
                                 fp * 10))
            .ok());
  }
  table.reset();

  // Flip one payload byte of the third record: its checksum mismatches,
  // so recovery must cut the log back to the end of record two.
  auto file = m.env.OpenFile("m.memo");
  ASSERT_TRUE(file.ok());
  uint64_t total = (*file)->Size();
  uint64_t corrupt_at = third_record_off + 30;
  ASSERT_LT(corrupt_at, total);
  char byte = 0;
  ASSERT_TRUE((*file)->Read(corrupt_at, 1, &byte).ok());
  byte = static_cast<char>(byte ^ 0x5A);
  ASSERT_TRUE((*file)->Write(corrupt_at, 1, &byte).ok());
  file->reset();

  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->recovered_entries(), 2);
  EXPECT_EQ(reopened->truncated_tail_bytes(), total - third_record_off);
  EXPECT_EQ(reopened->log_bytes(), third_record_off);
  EXPECT_NE(reopened->Probe(1, 1), nullptr);
  EXPECT_NE(reopened->Probe(2, 2), nullptr);
  EXPECT_EQ(reopened->Probe(3, 3), nullptr);
}

TEST(MemoTableTest, TornAppendFaultLosesOnlyThatRecord) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  ASSERT_TRUE(table->Publish(MakeEntry(1, 1, 10)).ok());
  ASSERT_TRUE(table->Publish(MakeEntry(2, 2, 20)).ok());

  storage::FaultSpec spec;
  spec.op = storage::FaultOp::kAppend;
  spec.kind = storage::FaultKind::kTornWrite;
  spec.glob = "*.memo";
  m.env.Arm(spec);
  auto torn = table->Publish(MakeEntry(3, 3, 30));
  EXPECT_FALSE(torn.ok());
  EXPECT_EQ(m.env.stats().faults_fired, 1u);
  table.reset();

  // Recovery sees at most a partial third record and truncates it; the
  // two published entries replay intact.
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->recovered_entries(), 2);
  EXPECT_NE(reopened->Probe(1, 1), nullptr);
  EXPECT_NE(reopened->Probe(2, 2), nullptr);
  EXPECT_EQ(reopened->Probe(3, 3), nullptr);
}

TEST(MemoTableTest, CrashAtPublishSyncRecoversPrefix) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  ASSERT_TRUE(table->Publish(MakeEntry(1, 1, 10)).ok());

  storage::FaultSpec spec;
  spec.op = storage::FaultOp::kSync;
  spec.kind = storage::FaultKind::kCrash;
  spec.glob = "*.memo";
  m.env.Arm(spec);
  EXPECT_FALSE(table->Publish(MakeEntry(2, 2, 20)).ok());
  EXPECT_TRUE(m.env.crashed());
  table.reset();

  // Reboot: un-synced bytes are gone; the synced prefix replays.
  ASSERT_TRUE(m.env.RecoverToSyncedState().ok());
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->recovered_entries(), 1);
  EXPECT_NE(reopened->Probe(1, 1), nullptr);
  EXPECT_EQ(reopened->Probe(2, 2), nullptr);
}

TEST(MemoTableTest, InvalidateBelowDropsRegistrationsPersistently) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  for (uint64_t fp = 1; fp <= 4; ++fp) {
    ASSERT_TRUE(
        table->Publish(MakeEntry(fp, static_cast<retro::SnapshotId>(fp),
                                 fp * 10))
            .ok());
  }
  ASSERT_TRUE(table->InvalidateBelow(3).ok());
  EXPECT_EQ(table->Probe(1, 1), nullptr);
  EXPECT_EQ(table->Probe(2, 2), nullptr);
  EXPECT_NE(table->Probe(3, 3), nullptr);
  EXPECT_NE(table->Probe(4, 4), nullptr);
  EXPECT_EQ(table->entry_count(), 2u);

  // The invalidation is a logged record: recovery replays it.
  table.reset();
  auto reopened = MustOpen(&m.env, "m");
  EXPECT_EQ(reopened->Probe(1, 1), nullptr);
  EXPECT_EQ(reopened->Probe(2, 2), nullptr);
  EXPECT_NE(reopened->Probe(3, 3), nullptr);
  EXPECT_NE(reopened->Probe(4, 4), nullptr);
}

TEST(MemoTableTest, ConcurrentPublishersAgreeOnFirstWin) {
  MemoEnv m;
  auto table = MustOpen(&m.env, "m");
  constexpr int kThreads = 8;
  std::atomic<int> inserted{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // All threads publish the same key (fingerprint 7, same read set)
      // under distinct snapshots, interleaved with probes.
      auto pub = table->Publish(
          MakeEntry(7, static_cast<retro::SnapshotId>(t + 1), 70));
      if (!pub.ok()) {
        ++failures;
        return;
      }
      if (pub->inserted) ++inserted;
      auto hit = table->Probe(7, static_cast<retro::SnapshotId>(t + 1));
      if (hit == nullptr || hit->rows.size() != 2) ++failures;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(inserted.load(), 1);  // first publish wins, everyone else aliases
  EXPECT_EQ(table->entry_count(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(table->Probe(7, static_cast<retro::SnapshotId>(t + 1)),
              nullptr);
  }
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
  f.memo = MustOpen(f.env.get(), "qmemo");
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

  // And the invalidation persisted: a reopened memo still refuses the
  // dropped snapshots.
  f.memo.reset();
  f.memo = MustOpen(f.env.get(), "qmemo");
  for (retro::SnapshotId snap : f.snaps) {
    if (snap < keep) {
      EXPECT_EQ(f.memo->Probe(fp, snap), nullptr) << snap;
    }
  }
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

TEST(MemoStalenessTest, PersistentMemoSurvivesStoreReopen) {
  EngineFixture f = MakeEngineFixture(10, 5);
  ASSERT_TRUE(RunPlain(&f, kQsAll, "Base").ok());
  const std::vector<std::string> baseline = Dump(&f, "Base");
  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Cold").ok());
  // An owner update archives live's shared pages before the restart.
  ASSERT_TRUE(
      f.data->Exec("UPDATE live SET score = score + 100 WHERE item = 0")
          .ok());

  // Restart: the store recovers its mod epochs from the Maplog, and the
  // memo its entries from its log. Both name the same bytes as before.
  f.engine.reset();
  f.memo.reset();
  f.meta.reset();
  f.data.reset();
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  f.memo = MustOpen(f.env.get(), "qmemo");
  EXPECT_GT(f.memo->recovered_entries(), 0);

  ASSERT_TRUE(RunMemoized(&f, kQsAll, "Warm").ok());
  EXPECT_EQ(Dump(&f, "Warm"), baseline);
  EXPECT_EQ(SumMisses(f.engine->last_run_stats()), 0);
  EXPECT_EQ(SumReplays(f.engine->last_run_stats()), 10);
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

TEST(MemoConcurrencyTest, TwoEnginesRunScopedMemoMatchSequentialOracle) {
  // Two engines on one store, each on its own thread, run rounds of
  // run-scoped memoized runs (a fresh log-free memo per round: every round
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
        std::unique_ptr<retro::MemoTable> memo = retro::MemoTable::InMemory();
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
