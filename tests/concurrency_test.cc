// Concurrency tests for the snapshot store: the paper's operational claim
// is that snapshot queries run concurrently with update transactions and
// stay transactionally consistent (Retro gets this from BDB's MVCC; here
// the store serializes page operations internally, so the *correctness*
// property is what we verify).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/random.h"
#include "retro/snapshot_store.h"

namespace rql::retro {
namespace {

using storage::Page;
using storage::PageId;

Page TaggedPage(uint64_t tag) {
  Page p;
  p.Zero();
  p.WriteU64(0, tag);
  p.WriteU64(2048, tag * 31);
  return p;
}

TEST(ConcurrencyTest, SnapshotReadersRunConcurrentlyWithUpdates) {
  storage::InMemoryEnv env;
  auto opened = SnapshotStore::Open(&env, "c");
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<SnapshotStore> store = std::move(*opened);

  constexpr int kPages = 16;
  constexpr int kRounds = 120;
  constexpr int kReaders = 4;

  std::vector<PageId> pages;
  for (int i = 0; i < kPages; ++i) {
    auto id = store->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(store->WritePage(*id, TaggedPage(0)).ok());
    pages.push_back(*id);
  }

  // Per declared snapshot, the tag every page held at declaration time.
  std::mutex expected_mu;
  std::map<SnapshotId, uint64_t> expected_tag;
  std::atomic<SnapshotId> published{kNoSnapshot};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (uint64_t round = 1; round <= kRounds; ++round) {
      Status s = store->Begin();
      if (!s.ok()) { ++failures; break; }
      for (PageId id : pages) {
        if (!store->WritePage(id, TaggedPage(round)).ok()) ++failures;
      }
      SnapshotId snap = kNoSnapshot;
      if (!store->Commit(/*declare_snapshot=*/true, &snap).ok()) {
        ++failures;
        break;
      }
      {
        std::lock_guard<std::mutex> lock(expected_mu);
        expected_tag[snap] = round;
      }
      published.store(snap, std::memory_order_release);
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  std::atomic<int64_t> reads{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(static_cast<uint64_t>(r) + 1);
      while (!done.load(std::memory_order_acquire)) {
        SnapshotId latest = published.load(std::memory_order_acquire);
        if (latest == kNoSnapshot) continue;
        auto snap = static_cast<SnapshotId>(
            1 + rng.Uniform(latest));
        uint64_t want;
        {
          std::lock_guard<std::mutex> lock(expected_mu);
          auto it = expected_tag.find(snap);
          if (it == expected_tag.end()) continue;
          want = it->second;
        }
        auto view = store->OpenSnapshot(snap);
        if (!view.ok()) { ++failures; continue; }
        for (PageId id : pages) {
          Page page;
          if (!(*view)->ReadPage(id, &page).ok()) { ++failures; continue; }
          if (page.ReadU64(0) != want || page.ReadU64(2048) != want * 31) {
            ++failures;
          }
          ++reads;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0);

  // Post-hoc: every snapshot's state is still exact.
  for (const auto& [snap, want] : expected_tag) {
    auto view = store->OpenSnapshot(snap);
    ASSERT_TRUE(view.ok());
    Page page;
    ASSERT_TRUE((*view)->ReadPage(pages[0], &page).ok());
    EXPECT_EQ(page.ReadU64(0), want) << "snapshot " << snap;
  }
}

// K threads of random snapshot reads against a fault-free store, each read
// checked against an oracle computed sequentially while history was built.
// With the cache cleared first, racing readers reconstruct the same archived
// pages concurrently, exercising the sharded cache and single-flight loads.
TEST(ConcurrencyTest, RandomSnapshotReadsMatchSequentialOracle) {
  storage::InMemoryEnv env;
  auto opened = SnapshotStore::Open(&env, "c3");
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<SnapshotStore> store = std::move(*opened);

  constexpr int kPages = 12;
  constexpr int kSnapshots = 40;
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 400;

  std::vector<PageId> pages;
  for (int i = 0; i < kPages; ++i) {
    auto id = store->AllocatePage();
    ASSERT_TRUE(id.ok());
    pages.push_back(*id);
  }

  // Build history sequentially; each snapshot overwrites a pseudo-random
  // subset of pages, so the oracle is the carried-forward per-page tag.
  std::vector<SnapshotId> snaps;
  std::vector<std::vector<uint64_t>> oracle;  // [snap index][page index]
  std::vector<uint64_t> current(kPages, 0);
  Random build_rng(17);
  for (int p = 0; p < kPages; ++p) {
    current[p] = 1000 + static_cast<uint64_t>(p);
    ASSERT_TRUE(store->WritePage(pages[p], TaggedPage(current[p])).ok());
  }
  for (int s = 0; s < kSnapshots; ++s) {
    auto snap = store->DeclareSnapshot();
    ASSERT_TRUE(snap.ok());
    snaps.push_back(*snap);
    oracle.push_back(current);
    int writes = 1 + static_cast<int>(build_rng.Uniform(kPages));
    for (int w = 0; w < writes; ++w) {
      int p = static_cast<int>(build_rng.Uniform(kPages));
      current[p] = static_cast<uint64_t>(s + 1) * 100 + p;
      ASSERT_TRUE(store->WritePage(pages[p], TaggedPage(current[p])).ok());
    }
  }

  // Cold start: force every archived read to hit the Pagelog at least once.
  store->ClearSnapshotCache();

  std::atomic<int> failures{0};
  // Per thread: the reads it issued, and its views' counters.
  std::vector<int64_t> issued(kThreads, 0);
  std::vector<IterationStats> counted(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) * 7919 + 1);
      for (int i = 0; i < kReadsPerThread; ++i) {
        int s = static_cast<int>(rng.Uniform(kSnapshots));
        auto view = store->OpenSnapshot(snaps[s]);
        if (!view.ok()) { ++failures; continue; }
        // A few pages per view: page reconstruction interleaves with the
        // other threads' reads of the same and different snapshots.
        for (int j = 0; j < 3; ++j) {
          int p = static_cast<int>(rng.Uniform(kPages));
          Page page;
          ++issued[t];
          if (!(*view)->ReadPage(pages[p], &page).ok()) { ++failures; continue; }
          uint64_t want = oracle[s][p];
          if (page.ReadU64(0) != want || page.ReadU64(2048) != want * 31) {
            ++failures;
          }
        }
        counted[t].Add((*view)->stats());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Each view counts its own reads, so summed over all views every read
  // issued is counted exactly once: an archive load (one record per load
  // in full-page mode), a cache hit, a coalesced wait or a db-shared read.
  IterationStats total;
  int64_t total_issued = 0;
  for (int t = 0; t < kThreads; ++t) {
    total.Add(counted[t]);
    total_issued += issued[t];
  }
  EXPECT_EQ(total_issued, int64_t{kThreads} * kReadsPerThread * 3);
  EXPECT_EQ(total.pagelog_page_reads + total.snapshot_cache_hits +
                total.coalesced_loads + total.db_page_reads,
            total_issued);
  EXPECT_GT(total.pagelog_page_reads, 0);

  // The store stays fully usable (and exact) after the storm.
  for (int s = 0; s < kSnapshots; ++s) {
    auto view = store->OpenSnapshot(snaps[s]);
    ASSERT_TRUE(view.ok());
    for (int p = 0; p < kPages; ++p) {
      Page page;
      ASSERT_TRUE((*view)->ReadPage(pages[p], &page).ok());
      EXPECT_EQ(page.ReadU64(0), oracle[s][p])
          << "snapshot " << snaps[s] << " page " << p;
    }
  }
}

TEST(ConcurrencyTest, ViewOpenedBeforeConcurrentOverwriteStaysConsistent) {
  storage::InMemoryEnv env;
  auto opened = SnapshotStore::Open(&env, "c2");
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<SnapshotStore> store = std::move(*opened);

  auto id = store->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store->WritePage(*id, TaggedPage(1)).ok());
  auto snap = store->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  // Open the view while the page is still shared with the database, then
  // overwrite from another thread. Every read of the view — interleaved
  // arbitrarily with the writes — must see the declaration-time state.
  auto view = store->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());

  std::atomic<bool> start{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    while (!start.load()) {}
    for (uint64_t round = 2; round < 50; ++round) {
      if (!store->WritePage(*id, TaggedPage(round)).ok()) ++bad;
    }
  });
  std::thread reader([&] {
    while (!start.load()) {}
    for (int i = 0; i < 200; ++i) {
      Page page;
      if (!(*view)->ReadPage(*id, &page).ok() || page.ReadU64(0) != 1) {
        ++bad;
      }
    }
  });
  start.store(true);
  writer.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace rql::retro
