// SharedScanCache lifetime and concurrency edges: segmented-LRU budget
// accounting, eviction while a reader still holds the entry, per-version
// single-flight decode (publish, abandon, and truncation-stale paths),
// conservative TruncateHistory invalidation with a run in progress, the
// scoped metrics handle, and a TSan-able stress mix of concurrent
// attached engines validated against a sequential flag-off oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "retro/metrics.h"
#include "rql/rql.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"
#include "storage/page.h"

namespace rql {
namespace {

using sql::Row;
using sql::SharedScanCache;
using sql::Value;

/// A decoded page whose EstimateBytes charge is kPageSize + overhead,
/// tagged with `tag` so tests can tell entries apart.
std::shared_ptr<const SharedScanCache::DecodedPage> MakePage(int64_t tag) {
  auto page = std::make_shared<SharedScanCache::DecodedPage>();
  page->rows.push_back(Row{Value::Integer(tag)});
  return page;
}

int64_t PageTag(const SharedScanCache::DecodedPage& page) {
  return page.rows.at(0).at(0).AsInt();
}

TEST(SharedScanCacheTest, SingleFlightProtocolSingleThread) {
  SharedScanCache cache;
  SharedScanCache::AcquireResult r = cache.Acquire(7);
  EXPECT_EQ(r.page, nullptr);
  EXPECT_TRUE(r.claimed);

  auto published = cache.Insert(7, MakePage(70));
  EXPECT_EQ(PageTag(*published), 70);
  EXPECT_EQ(cache.size(), 1u);

  r = cache.Acquire(7);
  ASSERT_NE(r.page, nullptr);
  EXPECT_EQ(PageTag(*r.page), 70);
  EXPECT_FALSE(r.claimed);
  EXPECT_FALSE(r.coalesced);
  EXPECT_EQ(PageTag(*cache.Lookup(7)), 70);
  EXPECT_EQ(cache.Lookup(8), nullptr);

  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.shared_hits, 2);  // Acquire hit + Lookup hit
  EXPECT_EQ(s.coalesced_decodes, 0);
}

TEST(SharedScanCacheTest, BudgetEvictsProbationFirstAndHeldEntriesSurvive) {
  // One shard for deterministic LRU; room for roughly two resident pages.
  SharedScanCache::Options opt;
  opt.shards = 1;
  opt.max_bytes = 2 * storage::kPageSize + storage::kPageSize / 2;
  SharedScanCache cache(opt);

  ASSERT_TRUE(cache.Acquire(1).claimed);
  auto held = cache.Insert(1, MakePage(10));
  ASSERT_TRUE(cache.Acquire(2).claimed);
  cache.Insert(2, MakePage(20));

  // Re-hit version 1: promoted to the protected segment, so the later
  // over-budget insert must evict probationary version 2, not it.
  ASSERT_NE(cache.Lookup(1), nullptr);

  ASSERT_TRUE(cache.Acquire(3).claimed);
  cache.Insert(3, MakePage(30));

  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_GE(s.evictions, 1);
  EXPECT_NE(cache.Lookup(1), nullptr) << "protected entry was evicted";
  EXPECT_EQ(cache.Lookup(2), nullptr) << "probationary entry survived";

  // The evicted version is decodable again (a fresh claim), and the
  // shared_ptr held across the eviction still reads its rows.
  EXPECT_TRUE(cache.Acquire(2).claimed);
  cache.AbandonDecode(2);
  EXPECT_EQ(PageTag(*held), 10);

  // Byte accounting stays exact across insert/evict cycles.
  uint64_t expect_bytes = 0;
  for (uint64_t v : {1, 3}) {
    auto page = cache.Lookup(v);
    ASSERT_NE(page, nullptr);
    expect_bytes += SharedScanCache::EstimateBytes(*page);
  }
  EXPECT_EQ(cache.bytes(), expect_bytes);
}

TEST(SharedScanCacheTest, CoalescedWaiterIsServedThePublishedPage) {
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(5).claimed);

  std::atomic<bool> waiter_started{false};
  SharedScanCache::AcquireResult waited;
  std::thread waiter([&] {
    waiter_started.store(true);
    waited = cache.Acquire(5);
  });
  while (!waiter_started.load()) std::this_thread::yield();
  // Give the waiter a beat to block on the in-flight decode.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  cache.Insert(5, MakePage(50));
  waiter.join();

  ASSERT_NE(waited.page, nullptr);
  EXPECT_EQ(PageTag(*waited.page), 50);
  EXPECT_FALSE(waited.claimed);
  EXPECT_TRUE(waited.coalesced);
  EXPECT_EQ(cache.GetStats().coalesced_decodes, 1);
}

TEST(SharedScanCacheTest, AbandonedDecodeWakesWaitersEmptyHanded) {
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(9).claimed);

  SharedScanCache::AcquireResult waited;
  std::thread waiter([&] { waited = cache.Acquire(9); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  cache.AbandonDecode(9);
  waiter.join();

  // The waiter falls back to an uncached read: no page, no claim.
  EXPECT_EQ(waited.page, nullptr);
  EXPECT_FALSE(waited.claimed);
  EXPECT_FALSE(waited.coalesced);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.GetStats().abandoned_decodes, 1);

  // The version is claimable again afterwards.
  EXPECT_TRUE(cache.Acquire(9).claimed);
  cache.Insert(9, MakePage(90));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedScanCacheTest, ClearDuringInflightDecodeSuppressesPublish) {
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(3).claimed);
  cache.Clear();  // truncation path: the in-flight claim is now stale

  // A late arrival must neither wait on the stale claim nor re-claim the
  // suspect version: plain uncached read.
  SharedScanCache::AcquireResult late = cache.Acquire(3);
  EXPECT_EQ(late.page, nullptr);
  EXPECT_FALSE(late.claimed);

  // The claimant completes, but nothing is published under the (possibly
  // rebased) key.
  cache.Insert(3, MakePage(33));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(3), nullptr);
}

TEST(SharedScanCacheTest, TruncateInvalidationIsConservative) {
  SharedScanCache cache;
  for (uint64_t v = 1; v <= 8; ++v) {
    ASSERT_TRUE(cache.Acquire(v).claimed);
    cache.Insert(v, MakePage(static_cast<int64_t>(v)));
  }
  auto held = cache.Lookup(2);
  ASSERT_NE(held, nullptr);

  // keep_from only removes versions below it at the store level, but the
  // cache must drop everything: truncation rebases every offset.
  cache.OnTruncateHistory(4);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.GetStats().truncate_invalidations, 1);
  EXPECT_EQ(PageTag(*held), 2) << "held entry must outlive invalidation";
}

TEST(SharedScanCacheTest, MetricsHandleRegistersAndDeregisters) {
  retro::MetricsRegistry registry;
  SharedScanCache cache;
  ASSERT_TRUE(cache.Acquire(1).claimed);
  cache.Insert(1, MakePage(1));
  {
    ScopedCleanup gauges = cache.RegisterMetrics(&registry, "scan");
    retro::MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
    EXPECT_EQ(snap.gauges.at("scan.entries"), 1);
    EXPECT_GT(snap.gauges.at("scan.bytes"), 0);
    EXPECT_EQ(snap.gauges.at("scan.misses"), 1);
  }
  // The scoped handle removed the gauges: no dangling reads of a cache
  // that may be destroyed before the registry.
  EXPECT_EQ(registry.TakeSnapshot().gauges.count("scan.entries"), 0u);
}

TEST(SharedScanCacheTest, RandomizedConcurrentProtocolMix) {
  // TSan fodder: claims, publishes, abandons, lookups and clears race on
  // a small version space and a small budget (so eviction runs too).
  SharedScanCache::Options opt;
  opt.shards = 2;
  opt.max_bytes = 8 * storage::kPageSize;
  SharedScanCache cache(opt);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  constexpr uint64_t kVersions = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t version = (state >> 33) % kVersions;
        switch ((state >> 20) % 8) {
          case 0:
            cache.Clear();
            break;
          case 1:
            (void)cache.Lookup(version);
            break;
          default: {
            SharedScanCache::AcquireResult r = cache.Acquire(version);
            if (r.page != nullptr) {
              EXPECT_EQ(PageTag(*r.page), static_cast<int64_t>(version));
            } else if (r.claimed) {
              if ((state >> 10) % 4 == 0) {
                cache.AbandonDecode(version);
              } else {
                cache.Insert(version, MakePage(static_cast<int64_t>(version)));
              }
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_GT(s.misses, 0);
  EXPECT_GT(s.inserts, 0);
  EXPECT_LE(s.entries, kVersions);
}

// --- engine-level lifetime edges -------------------------------------------

struct EngineFixture {
  std::unique_ptr<storage::InMemoryEnv> env =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  retro::SnapshotId last_snap = retro::kNoSnapshot;
};

/// A small multi-page history: `t` spans several heap pages and a slice
/// of it is updated before every snapshot, so consecutive snapshots
/// share most page versions (the shape the shared cache serves).
EngineFixture MakeHistory(int snapshots, RqlOptions options = RqlOptions()) {
  EngineFixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine =
      std::make_unique<RqlEngine>(f.data.get(), f.meta.get(), options);
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(
      f.data->Exec("CREATE TABLE t (k INTEGER, v INTEGER)").ok());
  for (int k = 0; k < 600; ++k) {
    EXPECT_TRUE(f.data
                    ->AppendRow("t", {Value::Integer(k),
                                      Value::Integer(k * 10)})
                    .ok());
  }
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    EXPECT_TRUE(f.data
                    ->Exec("UPDATE t SET v = v + 1 WHERE k % 37 = " +
                           std::to_string(s % 37))
                    .ok());
    auto snap = f.engine->CommitWithSnapshot("ts-" + std::to_string(s));
    EXPECT_TRUE(snap.ok());
    if (snap.ok()) f.last_snap = *snap;
  }
  return f;
}

std::string QsRange(retro::SnapshotId first, retro::SnapshotId last) {
  return "SELECT snap_id FROM SnapIds WHERE snap_id >= " +
         std::to_string(first) + " AND snap_id <= " + std::to_string(last) +
         " ORDER BY snap_id";
}

std::vector<std::string> CollectRows(sql::Database* meta,
                                     const std::string& table) {
  auto rows = meta->Query("SELECT * FROM " + table);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> out;
  if (rows.ok()) {
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
  }
  return out;
}

constexpr char kQq[] = "SELECT k, v FROM t WHERE v % 3 = 0";

TEST(SharedScanCacheEngineTest, TruncateHistoryInvalidatesMidLifeCache) {
  SharedScanCache cache;
  RqlOptions options;
  options.shared_scan_cache = &cache;
  EngineFixture f = MakeHistory(12, options);

  const std::string qs_all = QsRange(1, f.last_snap);
  ASSERT_TRUE(f.engine->CollateData(qs_all, kQq, "Out").ok());
  ASSERT_GT(cache.size(), 0u) << "run should have populated the cache";
  std::vector<std::string> before = CollectRows(f.meta.get(), "Out");
  ASSERT_FALSE(before.empty());

  // Retention drops snapshots below 7 and rewrites the Pagelog; the
  // engine's hook must clear the store-scoped cache outright.
  const retro::SnapshotId keep_from = 7;
  ASSERT_TRUE(f.engine->TruncateHistory(keep_from).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.GetStats().truncate_invalidations, 1);

  // Post-truncation runs decode fresh offsets and must agree with a
  // cache-less engine reading the same (attached) store.
  ASSERT_TRUE(f.engine->CollateData(QsRange(keep_from, f.last_snap), kQq,
                                    "OutAfter")
                  .ok());
  auto oracle_data = sql::Database::Attach(f.data->store());
  ASSERT_TRUE(oracle_data.ok());
  auto oracle_env = std::make_unique<storage::InMemoryEnv>();
  auto oracle_meta = sql::Database::Open(oracle_env.get(), "meta");
  ASSERT_TRUE(oracle_meta.ok());
  RqlEngine oracle(oracle_data->get(), oracle_meta->get());
  ASSERT_TRUE(oracle.EnsureSnapIds().ok());
  for (retro::SnapshotId s = keep_from; s <= f.last_snap; ++s) {
    ASSERT_TRUE((*oracle_meta)
                    ->AppendRow("SnapIds",
                                {Value::Integer(s), Value::Text("ts"),
                                 Value::Text("")})
                    .ok());
  }
  ASSERT_TRUE(
      oracle.CollateData(QsRange(keep_from, f.last_snap), kQq, "Oracle")
          .ok());
  EXPECT_EQ(CollectRows(f.meta.get(), "OutAfter"),
            CollectRows(oracle_meta->get(), "Oracle"));
}

TEST(SharedScanCacheEngineTest, ConcurrentAttachedRunsMatchSequentialOracle) {
  EngineFixture f = MakeHistory(16);
  const std::string qs = QsRange(1, f.last_snap);

  // Sequential flag-off oracle on the owning engine.
  ASSERT_TRUE(f.engine->CollateData(qs, kQq, "Oracle").ok());
  const std::vector<std::string> oracle = CollectRows(f.meta.get(), "Oracle");
  ASSERT_FALSE(oracle.empty());

  SharedScanCache cache;
  constexpr int kClients = 4;
  struct Client {
    std::unique_ptr<storage::InMemoryEnv> env;
    std::unique_ptr<sql::Database> meta;
    std::unique_ptr<sql::Database> data;
    std::unique_ptr<RqlEngine> engine;
    Status status = Status::OK();
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t coalesced = 0;
  };
  std::vector<Client> clients(kClients);
  for (Client& c : clients) {
    c.env = std::make_unique<storage::InMemoryEnv>();
    auto meta = sql::Database::Open(c.env.get(), "meta");
    auto data = sql::Database::Attach(f.data->store());
    ASSERT_TRUE(meta.ok() && data.ok());
    c.meta = std::move(*meta);
    c.data = std::move(*data);
    RqlOptions options;
    options.shared_scan_cache = &cache;
    c.engine =
        std::make_unique<RqlEngine>(c.data.get(), c.meta.get(), options);
    ASSERT_TRUE(c.engine->EnsureSnapIds().ok());
    for (retro::SnapshotId s = 1; s <= f.last_snap; ++s) {
      ASSERT_TRUE(c.meta
                      ->AppendRow("SnapIds",
                                  {Value::Integer(s), Value::Text("ts"),
                                   Value::Text("")})
                      .ok());
    }
  }

  // Two rounds: the first mixes cold decodes with cross-run hits, the
  // second must run almost entirely out of the warm shared cache.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (Client& c : clients) {
      threads.emplace_back([&c, &qs] {
        c.status = c.engine->CollateData(qs, kQq, "Out");
        if (!c.status.ok()) return;
        const RqlRunStats& stats = c.engine->last_run_stats();
        c.hits += stats.shared_page_hits;
        c.misses += stats.scan_cache_misses;
        c.coalesced += stats.coalesced_decodes;
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kClients; ++i) {
      ASSERT_TRUE(clients[i].status.ok())
          << "round " << round << ": " << clients[i].status.ToString();
      EXPECT_EQ(CollectRows(clients[i].meta.get(), "Out"), oracle)
          << "client " << i << " diverged in round " << round;
    }
  }

  // Per-iteration attribution is exact under concurrency: the clients'
  // harvested counters must sum to the cache's own totals (the default
  // budget is far above this working set, so nothing was evicted and
  // re-decoded invisibly).
  SharedScanCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.evictions, 0);
  int64_t hits = 0, misses = 0, coalesced = 0;
  for (const Client& c : clients) {
    hits += c.hits;
    misses += c.misses;
    coalesced += c.coalesced;
  }
  EXPECT_EQ(hits, s.shared_hits);
  EXPECT_EQ(misses, s.misses);
  EXPECT_EQ(coalesced, s.coalesced_decodes);
  EXPECT_GT(hits, 0);
  EXPECT_EQ(s.inserts, static_cast<int64_t>(s.entries));
}

}  // namespace
}  // namespace rql
