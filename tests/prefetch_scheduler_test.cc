// PrefetchScheduler lifecycle, accounting, and failure edges: jobs warm
// the snapshot cache ahead of demand reads, background I/O errors surface
// through Collect with the same Status the synchronous path returns,
// Cancel discards them, truncation abandons stale plans, and the
// Schedule/Cancel/Collect/Shutdown surface stays safe under concurrent
// hammering (the TSan `concurrency` suite runs this file).

#include "retro/prefetch_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rql/rql.h"
#include "sql/database.h"
#include "storage/fault_env.h"

namespace rql {
namespace {

struct Fixture {
  std::unique_ptr<storage::InMemoryEnv> base_env =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<storage::FaultInjectionEnv> env =
      std::make_unique<storage::FaultInjectionEnv>(base_env.get());
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  std::vector<retro::SnapshotId> snaps;
};

/// A history where every `live` page changes in every snapshot: each
/// declared snapshot's SPT maps the full table to archived pre-states, so
/// a cold prefetch of any non-latest snapshot has real pages to fetch.
Fixture MakeHistory(int snapshots, int items) {
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
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    if (s == 0) {
      for (int i = 0; i < items; ++i) {
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(i) + ", " + std::to_string(i) +
                               ")")
                        .ok());
      }
    } else {
      EXPECT_TRUE(f.data->Exec("UPDATE live SET score = score + 1").ok());
    }
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(s));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
  }
  return f;
}

std::string AsOfCount(retro::SnapshotId snap) {
  return "SELECT AS OF " + std::to_string(snap) + " COUNT(*) FROM live";
}

TEST(PrefetchSchedulerTest, CollectedJobWarmsCacheAndDemandReadsHit) {
  Fixture f = MakeHistory(6, 400);
  retro::SnapshotStore* store = f.data->store();
  store->ClearSnapshotCache();

  retro::PrefetchScheduler sched(store, {});
  retro::SnapshotId target = f.snaps[1];
  sched.Schedule(target);
  // The engine would be executing the previous iteration here; Drain
  // substitutes for that overlap window so the job finishes rather than
  // racing Collect's demand-priority cancellation.
  sched.Drain(target);
  retro::PrefetchScheduler::JobReport rep = sched.Collect(target);
  EXPECT_TRUE(rep.scheduled);
  ASSERT_TRUE(rep.error.ok()) << rep.error.ToString();
  EXPECT_GT(rep.issued, 0);
  EXPECT_EQ(rep.cancelled, 0);
  EXPECT_GE(rep.overlap_us, 0);
  // A second Collect of the same snapshot finds no job.
  EXPECT_FALSE(sched.Collect(target).scheduled);

  // The demand read consumes what the job loaded: every page it fetched
  // ahead is served from the cache and credited back as a hit.
  auto rows = f.data->Query(AsOfCount(target));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  int64_t hits = sched.TakeHits();
  EXPECT_GT(hits, 0);
  EXPECT_LE(hits, rep.issued);

  sched.Shutdown();
  int64_t wasted = sched.TakeWasted();
  EXPECT_GE(wasted, 0);
  EXPECT_LE(hits + wasted, rep.issued);
}

TEST(PrefetchSchedulerTest, ReadServedDuringOthersLoadIsNoHit) {
  // The worker claims a page, then finds it already being loaded by
  // another reader and coalesces onto that load. A demand read served the
  // page while the claim is outstanding must not be credited as a hit:
  // the pipeline issued nothing (hits + wasted <= issued).
  Fixture f = MakeHistory(6, 400);
  retro::SnapshotStore* store = f.data->store();
  retro::SnapshotId target = f.snaps[1];
  store->ClearSnapshotCache();

  // The lowest archived offset of the target: with a budget of one page
  // and a fresh planning cursor, it is the whole plan.
  uint64_t first = UINT64_MAX;
  {
    auto view = store->OpenSnapshot(target);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    for (storage::PageId id = 0; id < 4096; ++id) {
      uint64_t v = 0;
      if ((*view)->PageVersion(id, &v)) first = std::min(first, v);
    }
  }
  ASSERT_NE(first, UINT64_MAX);

  // Another reader's load of that page, held in flight by its loader.
  storage::BufferPool* cache = store->snapshot_cache();
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, release = false;
  std::thread other([&] {
    auto blocking = [&](uint64_t, storage::Page*) {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      return Status::OK();
    };
    EXPECT_TRUE(cache->Get(first, blocking).ok());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  const int64_t coalesced_before = cache->stats().coalesced_loads;
  retro::PrefetchScheduler::Options opts;
  opts.budget_pages = 1;
  retro::PrefetchScheduler sched(store, opts);
  sched.Schedule(target);
  // The worker has claimed the page once its Get has coalesced onto the
  // held load.
  while (cache->stats().coalesced_loads == coalesced_before) {
    std::this_thread::yield();
  }
  // A demand read served the page in that window.
  sched.OnArchivedPageServed(first);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  other.join();

  sched.Drain(target);
  retro::PrefetchScheduler::JobReport rep = sched.Collect(target);
  ASSERT_TRUE(rep.scheduled);
  ASSERT_TRUE(rep.error.ok()) << rep.error.ToString();
  EXPECT_EQ(rep.issued, 0);
  int64_t hits = sched.TakeHits();
  sched.Shutdown();
  int64_t wasted = sched.TakeWasted();
  EXPECT_EQ(hits, 0);
  EXPECT_LE(hits + wasted, rep.issued);
  // The held load installed a placeholder page; drop it.
  store->ClearSnapshotCache();
}

TEST(PrefetchSchedulerTest, BackgroundErrorMatchesSyncStatusAndCancelDrops) {
  Fixture f = MakeHistory(6, 400);
  retro::SnapshotStore* store = f.data->store();
  retro::SnapshotId target = f.snaps[1];

  storage::FaultSpec spec;
  spec.op = storage::FaultOp::kRead;
  spec.kind = storage::FaultKind::kIoError;
  spec.glob = "*.pagelog";
  spec.sticky = true;

  // The only archive reads below are the scheduler's, so the fault fires
  // on a worker thread deterministically. Collect must hand the parked
  // Status to the consuming iteration.
  store->ClearSnapshotCache();
  retro::PrefetchScheduler sched(store, {});
  f.env->Arm(spec);
  sched.Schedule(target);
  sched.Drain(target);
  retro::PrefetchScheduler::JobReport rep = sched.Collect(target);
  EXPECT_TRUE(rep.scheduled);
  ASSERT_FALSE(rep.error.ok());
  EXPECT_EQ(rep.issued, 0);

  // The synchronous path fails with the same Status code.
  store->ClearSnapshotCache();
  auto sync = f.data->Query(AsOfCount(target));
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(rep.error.code(), sync.status().code())
      << rep.error.ToString() << " vs " << sync.status().ToString();

  // Cancel discards a parked error: the consuming iteration replayed, so
  // the synchronous path would not have issued these reads either.
  sched.Schedule(f.snaps[2]);
  sched.Drain(f.snaps[2]);
  retro::PrefetchScheduler::JobReport cancelled = sched.Cancel(f.snaps[2]);
  EXPECT_TRUE(cancelled.scheduled);
  EXPECT_TRUE(cancelled.error.ok()) << cancelled.error.ToString();
  f.env->DisarmAll();
}

TEST(PrefetchSchedulerTest, UndeclaredAndTruncatedSnapshotsPlanNothing) {
  Fixture f = MakeHistory(8, 400);
  retro::SnapshotStore* store = f.data->store();

  store->ClearSnapshotCache();
  retro::PrefetchScheduler sched(store, {});
  // Planning failures are silent: the foreground OpenSnapshot re-derives
  // and surfaces the same error, so the job just fetches nothing.
  retro::SnapshotId bogus = f.snaps.back() + 100;
  sched.Schedule(bogus);
  sched.Drain(bogus);
  retro::PrefetchScheduler::JobReport rep = sched.Collect(bogus);
  EXPECT_TRUE(rep.scheduled);
  EXPECT_TRUE(rep.error.ok()) << rep.error.ToString();
  EXPECT_EQ(rep.issued, 0);

  // Compaction drops snaps[0..2]; a prefetch of a dropped snapshot plans
  // nothing, a kept one still issues.
  ASSERT_TRUE(store->TruncateHistory(f.snaps[3]).ok());
  store->ClearSnapshotCache();
  sched.Schedule(f.snaps[1]);
  sched.Drain(f.snaps[1]);
  rep = sched.Collect(f.snaps[1]);
  EXPECT_TRUE(rep.scheduled);
  EXPECT_TRUE(rep.error.ok()) << rep.error.ToString();
  EXPECT_EQ(rep.issued, 0);

  sched.Schedule(f.snaps[4]);
  sched.Drain(f.snaps[4]);
  rep = sched.Collect(f.snaps[4]);
  ASSERT_TRUE(rep.error.ok()) << rep.error.ToString();
  EXPECT_GT(rep.issued, 0);
}

TEST(PrefetchSchedulerTest, OverlappingSchedulersKeepTrackerRegistered) {
  // Engines can overlap on one store; the older scheduler's Shutdown must
  // not deregister the newer one's consumption tracker.
  Fixture f = MakeHistory(6, 400);
  retro::SnapshotStore* store = f.data->store();
  store->ClearSnapshotCache();

  auto a = std::make_unique<retro::PrefetchScheduler>(
      store, retro::PrefetchScheduler::Options{});
  auto b = std::make_unique<retro::PrefetchScheduler>(
      store, retro::PrefetchScheduler::Options{});
  a->Shutdown();

  retro::SnapshotId target = f.snaps[1];
  b->Schedule(target);
  b->Drain(target);
  retro::PrefetchScheduler::JobReport rep = b->Collect(target);
  ASSERT_TRUE(rep.error.ok()) << rep.error.ToString();
  EXPECT_GT(rep.issued, 0);
  auto rows = f.data->Query(AsOfCount(target));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(b->TakeHits(), 0);
  b.reset();
  a.reset();
}

TEST(PrefetchSchedulerTest, ConcurrentScheduleCancelCollectShutdownRace) {
  Fixture f = MakeHistory(12, 400);
  retro::SnapshotStore* store = f.data->store();
  const size_t n = f.snaps.size();

  for (int round = 0; round < 4; ++round) {
    store->ClearSnapshotCache();
    retro::PrefetchScheduler::Options opts;
    opts.workers = 2;
    opts.budget_pages = 8;
    retro::PrefetchScheduler sched(store, opts);

    std::thread producer([&] {
      for (int i = 0; i < 200; ++i) sched.Schedule(f.snaps[i % n]);
    });
    std::thread canceller([&] {
      for (int i = 0; i < 200; ++i) sched.Cancel(f.snaps[(i * 7) % n]);
    });
    std::thread collector([&] {
      for (int i = 0; i < 200; ++i) {
        retro::PrefetchScheduler::JobReport rep =
            sched.Collect(f.snaps[(i * 3) % n]);
        if (rep.scheduled) {
          EXPECT_TRUE(rep.error.ok()) << rep.error.ToString();
        }
      }
    });
    std::thread reader([&] {
      for (int i = 0; i < 10; ++i) {
        auto rows = f.data->Query(AsOfCount(f.snaps[i % n]));
        EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      }
    });
    // Odd rounds tear down while the other threads are still calling in:
    // every post-shutdown Schedule is a no-op, every Finish is released.
    if (round % 2 == 1) sched.Shutdown();
    producer.join();
    canceller.join();
    collector.join();
    reader.join();
    sched.Shutdown();
    EXPECT_GE(sched.TakeHits(), 0);
    EXPECT_GE(sched.TakeWasted(), 0);
  }
}

// Engine-level: the same fault schedules the synchronous configurations
// absorb (or fail on) behave identically when the reads race ahead on the
// prefetch pipeline.

TEST(RqlPrefetchFaultTest, TransientFaultsWithRetriesAreTransparent) {
  Fixture f = MakeHistory(10, 120);
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const std::string qq =
      "SELECT item, score, current_snapshot() AS sid FROM live";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::string> out;
    for (const sql::Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  f.data->store()->ClearSnapshotCache();
  ASSERT_TRUE(f.engine->CollateData(qs, qq, "Baseline").ok());
  std::vector<std::string> baseline = dump("Baseline");

  // One-shot read faults land on whichever thread — background worker or
  // demand reader — issues the Nth archive read; both retry within the
  // same budget, so the run is fault-transparent either way.
  for (uint64_t after : {1u, 4u, 9u, 15u}) {
    storage::FaultSpec spec;
    spec.op = storage::FaultOp::kRead;
    spec.kind = storage::FaultKind::kIoError;
    spec.glob = "*.pagelog";
    spec.after = after;
    f.env->Arm(spec);
  }
  f.engine->mutable_options()->async_prefetch = true;
  f.engine->mutable_options()->archive_read_retries = 2;
  f.data->store()->ClearSnapshotCache();
  Status s = f.engine->CollateData(qs, qq, "Prefetched");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(dump("Prefetched"), baseline);
  EXPECT_GT(f.env->stats().faults_fired, 0u);
  f.env->DisarmAll();
}

TEST(RqlPrefetchFaultTest, PersistentFaultSurfacesSameStatusAsSyncPath) {
  Fixture f = MakeHistory(8, 120);
  const std::string qs = "SELECT snap_id FROM SnapIds";
  const std::string qq =
      "SELECT item, score, current_snapshot() AS sid FROM live";

  storage::FaultSpec sticky;
  sticky.op = storage::FaultOp::kRead;
  sticky.kind = storage::FaultKind::kIoError;
  sticky.glob = "*.pagelog";
  sticky.sticky = true;

  f.env->Arm(sticky);
  f.data->store()->ClearSnapshotCache();
  Status sync = f.engine->CollateData(qs, qq, "Sync");
  ASSERT_FALSE(sync.ok());
  f.env->DisarmAll();

  // The prefetch pipeline hits the same dead archive; the parked error is
  // surfaced by the consuming iteration with the same Status code, the run
  // fails, and no partial result table leaks.
  f.engine->mutable_options()->async_prefetch = true;
  f.env->Arm(sticky);
  f.data->store()->ClearSnapshotCache();
  Status prefetched = f.engine->CollateData(qs, qq, "Prefetched");
  ASSERT_FALSE(prefetched.ok());
  EXPECT_EQ(prefetched.code(), sync.code())
      << prefetched.ToString() << " vs " << sync.ToString();
  f.env->DisarmAll();
  EXPECT_EQ(f.meta->catalog()->data().FindTable("Sync"), nullptr);
  EXPECT_EQ(f.meta->catalog()->data().FindTable("Prefetched"), nullptr);
}

}  // namespace
}  // namespace rql
