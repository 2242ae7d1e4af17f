#include "retro/snapshot_store.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rql::retro {
namespace {

storage::Page TaggedPage(uint64_t tag) {
  storage::Page p;
  p.Zero();
  p.WriteU64(0, tag);
  return p;
}

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = SnapshotStore::Open(&env_, "t");
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  uint64_t ReadTag(storage::PageReader* reader, storage::PageId id) {
    storage::Page p;
    Status s = reader->ReadPage(id, &p);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return p.ReadU64(0);
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<SnapshotStore> store_;
};

TEST_F(SnapshotStoreTest, SnapshotSeesPreStateAfterOverwrite) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());

  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());

  EXPECT_EQ(ReadTag(store_.get(), *id), 2u);
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, UnmodifiedPagesAreSharedWithCurrentState) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(7)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->spt_size(), 0u);
  EXPECT_EQ(ReadTag(view->get(), *id), 7u);
  EXPECT_EQ((*view)->stats().db_page_reads, 1);
  EXPECT_EQ((*view)->stats().pagelog_page_reads, 0);
}

TEST_F(SnapshotStoreTest, MultipleSnapshotsSeeTheirOwnStates) {
  auto id = store_->AllocatePage();
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(v)).ok());
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(99)).ok());

  for (SnapshotId s = 1; s <= 5; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), s) << "snapshot " << s;
  }
  EXPECT_EQ(ReadTag(store_.get(), *id), 99u);
}

TEST_F(SnapshotStoreTest, ConsecutiveSnapshotsSharePreStates) {
  // One page modified once, then three snapshots declared, then modified:
  // all three snapshots must share a single archived pre-state.
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());   // snap 1
  ASSERT_TRUE(store_->DeclareSnapshot().ok());   // snap 2
  ASSERT_TRUE(store_->DeclareSnapshot().ok());   // snap 3
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());

  EXPECT_EQ(store_->pagelog()->record_count(), 1u);

  // Reading the page as of snapshot 1 warms the cache; snapshots 2 and 3
  // then hit the cache because they share the same Pagelog location.
  store_->ClearSnapshotCache();
  IterationStats stats;
  for (SnapshotId s = 1; s <= 3; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 1u);
    stats.Add((*view)->stats());
  }
  EXPECT_EQ(stats.pagelog_page_reads, 1);
  EXPECT_EQ(stats.snapshot_cache_hits, 2);
}

TEST_F(SnapshotStoreTest, WritesWithinOneEpochCaptureOnce) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());
  for (uint64_t v = 2; v <= 10; ++v) {
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(v)).ok());
  }
  EXPECT_EQ(store_->pagelog()->record_count(), 1u);
  auto view = store_->OpenSnapshot(1);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, OpenViewStaysConsistentAcrossLaterUpdates) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  // Open the view while the page is still shared with the database.
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->spt_size(), 0u);

  // Now overwrite the page; the open view must still see the pre-state
  // (the MVCC non-interference property from the paper's Section 4).
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  EXPECT_EQ(ReadTag(store_.get(), *id), 2u);
}

TEST_F(SnapshotStoreTest, CommitWithSnapshotDeclares) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(5)).ok());
  SnapshotId snap = kNoSnapshot;
  ASSERT_TRUE(store_->Commit(/*declare_snapshot=*/true, &snap).ok());
  EXPECT_EQ(snap, 1u);
  EXPECT_EQ(store_->latest_snapshot(), 1u);

  // The snapshot reflects the declaring transaction's own updates.
  auto view = store_->OpenSnapshot(snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 5u);
}

TEST_F(SnapshotStoreTest, RollbackRestoresPagesAndAllocations) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());

  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  auto extra = store_->AllocatePage();
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(store_->Rollback().ok());

  EXPECT_EQ(ReadTag(store_.get(), *id), 1u);
  EXPECT_EQ(store_->page_store()->allocated_pages(), 1u);
  EXPECT_FALSE(store_->in_transaction());
}

TEST_F(SnapshotStoreTest, RollbackAfterSnapshotKeepsAsOfStateCorrect) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());

  // The write captures the pre-state, then rolls back.
  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  ASSERT_TRUE(store_->Rollback().ok());

  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  EXPECT_EQ(ReadTag(store_.get(), *id), 1u);

  // A later write after another snapshot still yields correct history.
  auto snap2 = store_->DeclareSnapshot();
  ASSERT_TRUE(snap2.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(3)).ok());
  auto view2 = store_->OpenSnapshot(*snap2);
  ASSERT_TRUE(view2.ok());
  EXPECT_EQ(ReadTag(view2->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, FreedPageStillReadableInSnapshot) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(42)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(store_->FreePage(*id).ok());

  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 42u);
}

TEST_F(SnapshotStoreTest, DeferredFreeInsideTransaction) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(9)).ok());

  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->FreePage(*id).ok());
  ASSERT_TRUE(store_->Rollback().ok());
  EXPECT_EQ(ReadTag(store_.get(), *id), 9u);  // free undone

  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->FreePage(*id).ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(store_->page_store()->allocated_pages(), 0u);
}

TEST_F(SnapshotStoreTest, StateRecoversAcrossReopen) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  store_.reset();

  auto reopened = SnapshotStore::Open(&env_, "t");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->latest_snapshot(), 1u);
  auto view = (*reopened)->OpenSnapshot(1);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ReadTag(view->get(), *id), 1u);

  // Critically, a page last modified *after* the snapshot must not be
  // re-captured with a range covering the snapshot after reopen.
  ASSERT_TRUE((*reopened)->WritePage(*id, TaggedPage(3)).ok());
  auto view2 = (*reopened)->OpenSnapshot(1);
  ASSERT_TRUE(view2.ok());
  EXPECT_EQ(ReadTag(view2->get(), *id), 1u);
}

TEST_F(SnapshotStoreTest, UnknownSnapshotIdFails) {
  EXPECT_FALSE(store_->OpenSnapshot(1).ok());
  ASSERT_TRUE(store_->DeclareSnapshot().ok());
  EXPECT_TRUE(store_->OpenSnapshot(1).ok());
  EXPECT_FALSE(store_->OpenSnapshot(2).ok());
  EXPECT_FALSE(store_->OpenSnapshot(kNoSnapshot).ok());
}

TEST_F(SnapshotStoreTest, NestedBeginFails) {
  ASSERT_TRUE(store_->Begin().ok());
  EXPECT_FALSE(store_->Begin().ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_FALSE(store_->Commit().ok());
  EXPECT_FALSE(store_->Rollback().ok());
}

TEST_F(SnapshotStoreTest, OverwriteCycleFetchCounts) {
  // Build a small database of 8 pages, snapshot, then overwrite all of
  // them: a query touching every page as of the snapshot fetches all 8
  // from the Pagelog (a complete overwrite cycle).
  std::vector<storage::PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = store_->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(100 + i)).ok());
    ids.push_back(*id);
  }
  auto snap = store_->DeclareSnapshot();
  ASSERT_TRUE(snap.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store_->WritePage(ids[i], TaggedPage(200 + i)).ok());
  }

  store_->ClearSnapshotCache();
  auto view = store_->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ReadTag(view->get(), ids[i]), 100u + i);
  }
  EXPECT_EQ((*view)->stats().pagelog_page_reads, 8);
  EXPECT_EQ((*view)->stats().db_page_reads, 0);
}

TEST_F(SnapshotStoreTest, SnapshotSetSessionMatchesColdOpens) {
  // Two pages modified in different epochs; views a snapshot set opens
  // must read exactly what cold opens read, in any visit order (ascending
  // uses the cursor, descending falls back).
  auto a = store_->AllocatePage();
  auto b = store_->AllocatePage();
  for (uint64_t v = 1; v <= 6; ++v) {
    ASSERT_TRUE(store_->WritePage(*a, TaggedPage(10 * v)).ok());
    if (v % 2 == 0) {
      ASSERT_TRUE(store_->WritePage(*b, TaggedPage(100 * v)).ok());
    }
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*a, TaggedPage(999)).ok());
  ASSERT_TRUE(store_->WritePage(*b, TaggedPage(999)).ok());

  std::vector<std::pair<uint64_t, uint64_t>> cold;
  for (SnapshotId s = 1; s <= 6; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    cold.push_back({ReadTag(view->get(), *a), ReadTag(view->get(), *b)});
  }

  std::unique_ptr<SnapshotSet> set = store_->BeginSnapshotSet();
  for (SnapshotId s = 1; s <= 6; ++s) {
    auto view = set->Open(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *a), cold[s - 1].first) << "snap " << s;
    EXPECT_EQ(ReadTag(view->get(), *b), cold[s - 1].second) << "snap " << s;
  }
  // Descending re-visit through the same set: rebase fallback.
  for (SnapshotId s = 6; s >= 1; --s) {
    auto view = set->Open(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *a), cold[s - 1].first) << "snap " << s;
  }
  EXPECT_TRUE(set->Open(7).status().IsNotFound());
}

TEST_F(SnapshotStoreTest, SnapshotSetSeesUpdatesCommittedMidSession) {
  auto id = store_->AllocatePage();
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(1)).ok());
  auto s1 = store_->DeclareSnapshot();
  ASSERT_TRUE(s1.ok());

  std::unique_ptr<SnapshotSet> set = store_->BeginSnapshotSet();
  {
    auto view = set->Open(*s1);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  }
  // History grows while the set is open (the cursor must ingest the
  // appended capture).
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(2)).ok());
  auto s2 = store_->DeclareSnapshot();
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(3)).ok());
  {
    auto view = set->Open(*s2);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 2u);
  }
  {
    auto view = set->Open(*s1);  // backwards: rebase
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), 1u);
  }
}

TEST_F(SnapshotStoreTest, IncrementalSessionScansFewerMaplogEntries) {
  auto id = store_->AllocatePage();
  const SnapshotId kSnaps = 64;
  for (uint64_t v = 1; v <= kSnaps; ++v) {
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(v)).ok());
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(999)).ok());

  IterationStats cold;
  for (SnapshotId s = 1; s <= kSnaps; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    cold.Add((*view)->stats());
  }
  int64_t cold_entries = cold.spt.entries_scanned;

  IterationStats incremental;
  std::unique_ptr<SnapshotSet> set = store_->BeginSnapshotSet();
  for (SnapshotId s = 1; s <= kSnaps; ++s) {
    auto view = set->Open(s);
    ASSERT_TRUE(view.ok());
    incremental.Add((*view)->stats());
  }
  EXPECT_GT(incremental.spt_delta_entries, 0);
  EXPECT_LT(incremental.spt.entries_scanned, cold_entries);
}

TEST_F(SnapshotStoreTest, InterleavedSnapshotSetsEachMatchColdOpens) {
  // Two runs' sets on one store, stepped alternately in different
  // directions: each cursor is private, so neither sees the other's
  // position or delta.
  auto a = store_->AllocatePage();
  auto b = store_->AllocatePage();
  for (uint64_t v = 1; v <= 8; ++v) {
    ASSERT_TRUE(store_->WritePage(*a, TaggedPage(10 * v)).ok());
    if (v % 3 == 0) {
      ASSERT_TRUE(store_->WritePage(*b, TaggedPage(100 * v)).ok());
    }
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*a, TaggedPage(999)).ok());
  ASSERT_TRUE(store_->WritePage(*b, TaggedPage(999)).ok());
  std::vector<std::pair<uint64_t, uint64_t>> cold;
  for (SnapshotId s = 1; s <= 8; ++s) {
    auto view = store_->OpenSnapshot(s);
    ASSERT_TRUE(view.ok());
    cold.push_back({ReadTag(view->get(), *a), ReadTag(view->get(), *b)});
  }

  std::unique_ptr<SnapshotSet> up = store_->BeginSnapshotSet();
  std::unique_ptr<SnapshotSet> odd = store_->BeginSnapshotSet();
  std::vector<storage::PageId> delta;
  for (SnapshotId s = 1; s <= 8; ++s) {
    auto advanced = up->Advance(s, &delta);
    ASSERT_TRUE(advanced.ok());
    // Only the first step rebases; every later one is a one-snapshot
    // advance whose delta holds `a` (rewritten every epoch).
    EXPECT_EQ(*advanced, s > 1) << "snap " << s;
    if (s > 1) {
      EXPECT_NE(std::find(delta.begin(), delta.end(), *a), delta.end());
    }
    auto view = up->Open(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *a), cold[s - 1].first) << "snap " << s;
    EXPECT_EQ(ReadTag(view->get(), *b), cold[s - 1].second) << "snap " << s;
    if (s % 2 == 1) {
      auto other = odd->Open(s);
      ASSERT_TRUE(other.ok());
      EXPECT_EQ(ReadTag(other->get(), *a), cold[s - 1].first);
      EXPECT_EQ(ReadTag(other->get(), *b), cold[s - 1].second);
    }
  }
}

TEST_F(SnapshotStoreTest, TruncationBetweenAdvancesForcesRebase) {
  auto id = store_->AllocatePage();
  for (uint64_t v = 1; v <= 6; ++v) {
    ASSERT_TRUE(store_->WritePage(*id, TaggedPage(v)).ok());
    ASSERT_TRUE(store_->DeclareSnapshot().ok());
  }
  ASSERT_TRUE(store_->WritePage(*id, TaggedPage(999)).ok());

  std::unique_ptr<SnapshotSet> set = store_->BeginSnapshotSet();
  std::vector<storage::PageId> delta;
  ASSERT_TRUE(set->Advance(2, &delta).ok());
  auto advanced = set->Advance(3, &delta);
  ASSERT_TRUE(advanced.ok());
  EXPECT_TRUE(*advanced);

  // Compaction rewrites the logs and recycles Pagelog offsets: the next
  // step must rebase (no delta) instead of advancing stale chains.
  ASSERT_TRUE(store_->TruncateHistory(3).ok());
  advanced = set->Advance(4, &delta);
  ASSERT_TRUE(advanced.ok());
  EXPECT_FALSE(*advanced);
  EXPECT_TRUE(delta.empty());
  for (SnapshotId s = 4; s <= 6; ++s) {
    auto view = set->Open(s);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(ReadTag(view->get(), *id), s) << "snap " << s;
  }
  advanced = set->Advance(6, &delta);  // re-seek in place: a valid delta
  ASSERT_TRUE(advanced.ok());
  EXPECT_TRUE(*advanced);
  EXPECT_TRUE(set->Open(2).status().IsNotFound());
}

}  // namespace
}  // namespace rql::retro
