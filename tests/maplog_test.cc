#include "retro/maplog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace rql::retro {
namespace {

class MaplogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto log = Maplog::Open(&env_, "m.maplog");
    ASSERT_TRUE(log.ok());
    log_ = std::move(*log);
  }
  storage::InMemoryEnv env_;
  std::unique_ptr<Maplog> log_;
};

/// The cursor's SPT restricted to `pages`: every one of them it maps,
/// resolved in the log's page index as of the cursor's last seek.
SnapshotPageTable Resolved(const Maplog& log, const SptCursor& cursor,
                           const std::vector<storage::PageId>& pages) {
  SnapshotPageTable table;
  for (storage::PageId page : pages) {
    if (const PageCapture* capture = cursor.Resolve(log, page)) {
      table.emplace(page, SptEntry{capture->offset, capture->start});
    }
  }
  return table;
}

TEST_F(MaplogTest, MarksMustBeSequential) {
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  EXPECT_FALSE(log_->AppendSnapshotMark(3).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
}

TEST_F(MaplogTest, BuildSptPicksFirstCoveringEntryPerPage) {
  // Snapshot 1 declared; pages 10 and 11 captured for it; page 10 captured
  // again for snapshot 2 at a different location.
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 1, 1, 4096).ok());
  ASSERT_TRUE(log_->AppendCapture(11, 1, 1, 8192).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 2, 2, 12288).ok());

  SnapshotPageTable spt;
  uint64_t resume = 0;
  SptBuildStats stats;
  ASSERT_TRUE(log_->BuildSpt(1, &spt, &resume, &stats).ok());
  EXPECT_EQ(spt.size(), 2u);
  EXPECT_EQ(spt[10].offset, 4096u);
  EXPECT_EQ(spt[11].offset, 8192u);
  EXPECT_EQ(spt[10].start, 1u);
  EXPECT_EQ(resume, log_->entry_count());
  EXPECT_GT(stats.entries_scanned, 0);

  ASSERT_TRUE(log_->BuildSpt(2, &spt, &resume, &stats).ok());
  EXPECT_EQ(spt.size(), 1u);
  EXPECT_EQ(spt[10].offset, 12288u);
  EXPECT_EQ(spt[10].start, 2u);
}

TEST_F(MaplogTest, RangeCaptureCoversAllSnapshotsInRange) {
  // Page untouched across snapshots 1-3, then modified: one capture covers
  // the whole range.
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(3).ok());
  ASSERT_TRUE(log_->AppendCapture(7, 1, 3, 0).ok());

  for (SnapshotId s = 1; s <= 3; ++s) {
    SnapshotPageTable spt;
    uint64_t resume = 0;
    ASSERT_TRUE(log_->BuildSpt(s, &spt, &resume, nullptr).ok());
    ASSERT_EQ(spt.size(), 1u) << "snapshot " << s;
    EXPECT_EQ(spt[7].offset, 0u);
    EXPECT_EQ(spt[7].start, 1u);  // one content, one token, in 1..3
  }
}

TEST_F(MaplogTest, PagesAllocatedAfterSnapshotAreExcluded) {
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  // Page 20 allocated after snapshot 2, then captured for snapshot 3 only.
  ASSERT_TRUE(log_->AppendAlloc(20, 2).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(3).ok());
  ASSERT_TRUE(log_->AppendCapture(20, 3, 3, 4096).ok());

  SnapshotPageTable spt;
  uint64_t resume = 0;
  ASSERT_TRUE(log_->BuildSpt(2, &spt, &resume, nullptr).ok());
  EXPECT_TRUE(spt.empty());
  ASSERT_TRUE(log_->BuildSpt(3, &spt, &resume, nullptr).ok());
  EXPECT_EQ(spt.size(), 1u);
}

TEST_F(MaplogTest, RefreshExtendsSpt) {
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  SnapshotPageTable spt;
  uint64_t resume = 0;
  ASSERT_TRUE(log_->BuildSpt(1, &spt, &resume, nullptr).ok());
  EXPECT_TRUE(spt.empty());

  // A capture lands after the SPT was built (concurrent update).
  ASSERT_TRUE(log_->AppendCapture(5, 1, 1, 4096).ok());
  ASSERT_TRUE(log_->RefreshSpt(1, &spt, &resume, nullptr).ok());
  EXPECT_EQ(spt.size(), 1u);
  EXPECT_EQ(spt[5].offset, 4096u);
  EXPECT_EQ(resume, log_->entry_count());
}

TEST_F(MaplogTest, UnknownSnapshotFails) {
  SnapshotPageTable spt;
  uint64_t resume = 0;
  EXPECT_FALSE(log_->BuildSpt(1, &spt, &resume, nullptr).ok());
  EXPECT_FALSE(log_->BuildSpt(0, &spt, &resume, nullptr).ok());
}

TEST_F(MaplogTest, RecoverModEpochsAndLatest) {
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 1, 1, 0).ok());
  ASSERT_TRUE(log_->AppendAlloc(30, 1).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 2, 2, 4096).ok());

  std::unordered_map<storage::PageId, SnapshotId> epochs;
  SnapshotId latest = 0;
  ASSERT_TRUE(log_->RecoverModEpochs(&epochs, &latest).ok());
  EXPECT_EQ(latest, 2u);
  EXPECT_EQ(epochs[10], 2u);
  EXPECT_EQ(epochs[30], 1u);
  EXPECT_EQ(epochs.count(99), 0u);
}

TEST_F(MaplogTest, SkippyAndLinearScansAgree) {
  // Randomized history: pages captured in arbitrary epochs; the Skippy
  // scan must produce exactly the same SPT as the linear scan for every
  // snapshot.
  uint64_t seed = 987654321;
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  const SnapshotId kSnapshots = 37;
  std::unordered_map<storage::PageId, SnapshotId> mod_epoch;
  for (SnapshotId s = 1; s <= kSnapshots; ++s) {
    ASSERT_TRUE(log_->AppendSnapshotMark(s).ok());
    int captures = static_cast<int>(next() % 12);
    for (int c = 0; c < captures; ++c) {
      auto page = static_cast<storage::PageId>(1 + next() % 30);
      SnapshotId epoch = mod_epoch.count(page) ? mod_epoch[page] : 0;
      if (epoch >= s) continue;  // already captured this epoch
      ASSERT_TRUE(
          log_->AppendCapture(page, epoch + 1, s, (s * 100 + c) * 4096)
              .ok());
      mod_epoch[page] = s;
    }
  }
  for (SnapshotId s = 1; s <= kSnapshots; ++s) {
    SnapshotPageTable linear, skippy;
    uint64_t resume = 0;
    SptBuildStats lin_stats, sk_stats;
    log_->set_use_skippy(false);
    ASSERT_TRUE(log_->BuildSpt(s, &linear, &resume, &lin_stats).ok());
    log_->set_use_skippy(true);
    ASSERT_TRUE(log_->BuildSpt(s, &skippy, &resume, &sk_stats).ok());
    ASSERT_EQ(linear.size(), skippy.size()) << "snapshot " << s;
    for (const auto& [page, offset] : linear) {
      auto it = skippy.find(page);
      ASSERT_NE(it, skippy.end()) << "snapshot " << s << " page " << page;
      EXPECT_EQ(it->second, offset) << "snapshot " << s << " page " << page;
    }
    // Skippy never scans more entries than the linear suffix.
    EXPECT_LE(sk_stats.entries_scanned, lin_stats.entries_scanned);
  }
}

TEST_F(MaplogTest, SkippyScansFewerEntriesOnRepeatedOverwrites) {
  // One page overwritten every epoch: the linear scan for snapshot 1 reads
  // every capture; Skippy reads each page once per level (~log n).
  const SnapshotId kSnapshots = 256;
  for (SnapshotId s = 1; s <= kSnapshots; ++s) {
    ASSERT_TRUE(log_->AppendSnapshotMark(s).ok());
    ASSERT_TRUE(log_->AppendCapture(7, s, s, s * 4096).ok());
  }
  SnapshotPageTable spt;
  uint64_t resume = 0;
  SptBuildStats lin_stats, sk_stats;
  log_->set_use_skippy(false);
  ASSERT_TRUE(log_->BuildSpt(1, &spt, &resume, &lin_stats).ok());
  EXPECT_EQ(spt[7].offset, 4096u);
  log_->set_use_skippy(true);
  ASSERT_TRUE(log_->BuildSpt(1, &spt, &resume, &sk_stats).ok());
  EXPECT_EQ(spt[7].offset, 4096u);
  EXPECT_GE(lin_stats.entries_scanned, 256);
  EXPECT_LE(sk_stats.entries_scanned, 2 * 9);  // ~log2(256) runs of size 1
}

TEST_F(MaplogTest, SptCursorExpiryAndWake) {
  // Page 5 captured for snapshots [1,2] only; page 9 first captured for
  // snapshot 3 (allocated after 2). Ascending seeks must drop 5 after its
  // range expires and pick up 9 exactly when its range starts.
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  ASSERT_TRUE(log_->AppendCapture(5, 1, 2, 4096).ok());
  ASSERT_TRUE(log_->AppendAlloc(9, 2).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(3).ok());
  ASSERT_TRUE(log_->AppendCapture(9, 3, 3, 8192).ok());

  SptCursor cursor;
  int64_t delta = 0;
  ASSERT_TRUE(cursor.Seek(*log_, 1, nullptr, &delta).ok());
  EXPECT_EQ(Resolved(*log_, cursor, {5, 9}).size(), 1u);
  EXPECT_EQ(Resolved(*log_, cursor, {5, 9}).at(5).offset, 4096u);

  ASSERT_TRUE(cursor.Seek(*log_, 2, nullptr, &delta).ok());
  EXPECT_EQ(Resolved(*log_, cursor, {5, 9}).size(), 1u);
  EXPECT_EQ(Resolved(*log_, cursor, {5, 9}).at(5).offset, 4096u);

  ASSERT_TRUE(cursor.Seek(*log_, 3, nullptr, &delta).ok());
  EXPECT_EQ(Resolved(*log_, cursor, {5, 9}).size(), 1u);
  EXPECT_EQ(Resolved(*log_, cursor, {5, 9}).at(9).offset, 8192u);
}

TEST_F(MaplogTest, SptCursorMatchesColdBuildOnRandomHistories) {
  // The equivalence property behind the fast profile's incremental SPT:
  // after any mix of appends and (mostly ascending) seeks, the cursor's
  // table must equal a cold BuildSpt of the same snapshot.
  uint64_t seed = 20260805;
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  const SnapshotId kSnapshots = 41;
  std::unordered_map<storage::PageId, SnapshotId> mod_epoch;
  std::vector<storage::PageId> all_pages;
  for (storage::PageId page = 1; page <= 20; ++page) all_pages.push_back(page);
  SptCursor cursor;
  SnapshotId last_seek = 0;
  for (SnapshotId s = 1; s <= kSnapshots; ++s) {
    ASSERT_TRUE(log_->AppendSnapshotMark(s).ok());
    int writes = static_cast<int>(next() % 7);
    for (int w = 0; w < writes; ++w) {
      auto page = static_cast<storage::PageId>(1 + next() % 20);
      if (next() % 6 == 0 && mod_epoch.count(page) == 0) {
        ASSERT_TRUE(log_->AppendAlloc(page, s).ok());
        mod_epoch[page] = s;
        continue;
      }
      SnapshotId epoch = mod_epoch.count(page) ? mod_epoch[page] : 0;
      if (epoch >= s) continue;
      ASSERT_TRUE(
          log_->AppendCapture(page, epoch + 1, s, (s * 100 + w) * 4096)
              .ok());
      mod_epoch[page] = s;
    }
    // Seek while the log keeps growing: exercises the ingest path. Every
    // few snapshots jump backwards to exercise the rebase fallback.
    SnapshotId target = s;
    if (s % 7 == 0 && last_seek > 1) target = 1 + next() % last_seek;
    int64_t delta = 0;
    SptBuildStats stats;
    ASSERT_TRUE(cursor.Seek(*log_, target, &stats, &delta).ok());
    EXPECT_EQ(cursor.position(), target);
    last_seek = target;

    SnapshotPageTable cold;
    uint64_t resume = 0;
    ASSERT_TRUE(log_->BuildSpt(target, &cold, &resume, nullptr).ok());
    const SnapshotPageTable table = Resolved(*log_, cursor, all_pages);
    ASSERT_EQ(table.size(), cold.size())
        << "snapshot " << target << " at history length " << s;
    for (const auto& [page, entry] : cold) {
      auto it = table.find(page);
      ASSERT_NE(it, table.end())
          << "snapshot " << target << " page " << page;
      EXPECT_TRUE(it->second == entry)
          << "snapshot " << target << " page " << page;
    }
  }
}

TEST_F(MaplogTest, SptCursorAdvanceScansOnlyTheDelta) {
  // One page overwritten per epoch: visiting all snapshots in order via
  // the cursor scans the suffix once (rebase) plus one entry per advance,
  // while cold builds re-scan the suffix for every snapshot.
  const SnapshotId kSnapshots = 128;
  for (SnapshotId s = 1; s <= kSnapshots; ++s) {
    ASSERT_TRUE(log_->AppendSnapshotMark(s).ok());
    ASSERT_TRUE(log_->AppendCapture(7, s, s, s * 4096).ok());
  }
  log_->set_use_skippy(false);  // compare against plain linear builds
  int64_t cursor_entries = 0, cold_entries = 0;
  SptCursor cursor;
  for (SnapshotId s = 1; s <= kSnapshots; ++s) {
    SptBuildStats cur_stats, cold_stats;
    int64_t delta = 0;
    ASSERT_TRUE(cursor.Seek(*log_, s, &cur_stats, &delta).ok());
    cursor_entries += cur_stats.entries_scanned;
    SnapshotPageTable cold;
    uint64_t resume = 0;
    ASSERT_TRUE(log_->BuildSpt(s, &cold, &resume, &cold_stats).ok());
    cold_entries += cold_stats.entries_scanned;
    EXPECT_TRUE(Resolved(*log_, cursor, {7}).at(7) == cold.at(7))
        << "snapshot " << s;
  }
  // Cold: sum over s of (suffix from mark s) ~ n^2/2. Cursor: one full
  // suffix (rebase at s=1) + ~2 entries per advance.
  EXPECT_GE(cold_entries, cursor_entries * 10);
}

TEST_F(MaplogTest, SptCursorRejectsUnknownSnapshots) {
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  SptCursor cursor;
  int64_t delta = 0;
  EXPECT_FALSE(cursor.Seek(*log_, 0, nullptr, &delta).ok());
  EXPECT_FALSE(cursor.Seek(*log_, 2, nullptr, &delta).ok());
  ASSERT_TRUE(cursor.Seek(*log_, 1, nullptr, &delta).ok());
}

TEST_F(MaplogTest, SptCursorDeltaInvalidAfterRebase) {
  // A rebase (first seek of a cursor, or any backward seek) has no
  // predecessor snapshot to diff against: last_delta must read invalid.
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendCapture(4, 1, 1, 4096).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  ASSERT_TRUE(log_->AppendCapture(4, 2, 2, 8192).ok());

  SptCursor cursor;
  int64_t delta = 0;
  ASSERT_TRUE(cursor.Seek(*log_, 1, nullptr, &delta).ok());
  EXPECT_FALSE(cursor.last_delta_valid());

  ASSERT_TRUE(cursor.Seek(*log_, 2, nullptr, &delta).ok());
  EXPECT_TRUE(cursor.last_delta_valid());

  // Backward seek rebases again: the delta is invalidated, not stale.
  ASSERT_TRUE(cursor.Seek(*log_, 1, nullptr, &delta).ok());
  EXPECT_FALSE(cursor.last_delta_valid());
}

TEST_F(MaplogTest, SptCursorDeltaEmptyBetweenIdenticalSnapshots) {
  // Snapshots 2 and 3 declare no page changes; advancing across them must
  // produce a valid, empty delta — the signal iteration skipping rests on.
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(3).ok());
  ASSERT_TRUE(log_->AppendCapture(6, 1, 3, 4096).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(4).ok());
  ASSERT_TRUE(log_->AppendCapture(6, 4, 4, 8192).ok());

  SptCursor cursor;
  int64_t delta = 0;
  ASSERT_TRUE(cursor.Seek(*log_, 1, nullptr, &delta).ok());
  for (SnapshotId s = 2; s <= 3; ++s) {
    ASSERT_TRUE(cursor.Seek(*log_, s, nullptr, &delta).ok());
    EXPECT_TRUE(cursor.last_delta_valid()) << "snapshot " << s;
    EXPECT_TRUE(cursor.last_delta().empty()) << "snapshot " << s;
    EXPECT_EQ(Resolved(*log_, cursor, {6}).at(6).offset, 4096u)
        << "snapshot " << s;
  }
  // Page 6's capture range [1,3] expires at 4: the advance reports it.
  ASSERT_TRUE(cursor.Seek(*log_, 4, nullptr, &delta).ok());
  ASSERT_TRUE(cursor.last_delta_valid());
  ASSERT_EQ(cursor.last_delta().size(), 1u);
  EXPECT_EQ(cursor.last_delta()[0], 6u);
  EXPECT_EQ(Resolved(*log_, cursor, {6}).at(6).offset, 8192u);
}

TEST_F(MaplogTest, SptCursorDeltaCoversExpiryGapAndReawakening) {
  // All three ways a page's mapping can move between consecutive
  // snapshots surface in the delta: expiry (page becomes shared with the
  // current state), an allocation gap closing (page appears), and a
  // capture ingested after the cursor's last advance (reawakening).
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 1, 1, 4096).ok());  // expires at 2
  ASSERT_TRUE(log_->AppendAlloc(11, 1).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  ASSERT_TRUE(log_->AppendCapture(11, 2, 2, 8192).ok());  // gap closes at 2

  SptCursor cursor;
  int64_t delta = 0;
  ASSERT_TRUE(cursor.Seek(*log_, 1, nullptr, &delta).ok());
  EXPECT_EQ(Resolved(*log_, cursor, {10, 11}).size(), 1u);
  ASSERT_TRUE(cursor.Seek(*log_, 2, nullptr, &delta).ok());
  ASSERT_TRUE(cursor.last_delta_valid());
  std::vector<storage::PageId> pages = cursor.last_delta();
  std::sort(pages.begin(), pages.end());
  EXPECT_EQ(pages, (std::vector<storage::PageId>{10, 11}));
  EXPECT_EQ(Resolved(*log_, cursor, {10, 11}).count(10), 0u);
  EXPECT_EQ(Resolved(*log_, cursor, {10, 11}).at(11).offset, 8192u);

  // Page 10 is captured again only after the cursor reached snapshot 2;
  // the next advance must ingest the entry and report the page.
  ASSERT_TRUE(log_->AppendSnapshotMark(3).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 2, 3, 12288).ok());
  ASSERT_TRUE(cursor.Seek(*log_, 3, nullptr, &delta).ok());
  ASSERT_TRUE(cursor.last_delta_valid());
  pages = cursor.last_delta();
  EXPECT_NE(std::find(pages.begin(), pages.end(), 10u), pages.end());
  EXPECT_EQ(Resolved(*log_, cursor, {10, 11}).at(10).offset, 12288u);
}

TEST_F(MaplogTest, SptCursorDeltaAcrossTruncatedPrefix) {
  // After truncation the cursor can only rebase at keep_from (no
  // predecessor delta there), then advances normally above it.
  for (SnapshotId s = 1; s <= 6; ++s) {
    ASSERT_TRUE(log_->AppendSnapshotMark(s).ok());
    ASSERT_TRUE(log_->AppendCapture(8, s, s, s * 4096).ok());
  }
  ASSERT_TRUE(log_->AppendTruncate(4).ok());

  SptCursor cursor;
  int64_t delta = 0;
  EXPECT_FALSE(cursor.Seek(*log_, 3, nullptr, &delta).ok());
  ASSERT_TRUE(cursor.Seek(*log_, 4, nullptr, &delta).ok());
  EXPECT_FALSE(cursor.last_delta_valid());
  ASSERT_TRUE(cursor.Seek(*log_, 5, nullptr, &delta).ok());
  ASSERT_TRUE(cursor.last_delta_valid());
  ASSERT_EQ(cursor.last_delta().size(), 1u);
  EXPECT_EQ(cursor.last_delta()[0], 8u);
  EXPECT_EQ(Resolved(*log_, cursor, {8}).at(8).offset, 5u * 4096u);
}

TEST_F(MaplogTest, ResolveMatchesColdBuildsAndDeltasCoverEveryMove) {
  // Random histories shaped like the store's: each epoch captures pages
  // (first write after a declaration) and allocates pages (a reuse whose
  // next capture starts after a gap). A cursor seeks while the log grows:
  // mostly ascending, sometimes to the same snapshot after more appends,
  // sometimes backwards. At every seek the page index must resolve every
  // page exactly as a cold linear build does, and an ascending seek's
  // delta must list every page whose resolution or bytes moved.
  constexpr storage::PageId kPages = 24;
  constexpr SnapshotId kSnapshots = 60;
  std::vector<storage::PageId> all_pages;
  for (storage::PageId page = 1; page <= kPages; ++page) {
    all_pages.push_back(page);
  }
  for (uint64_t seed : {7u, 20261019u, 99991u}) {
    SCOPED_TRACE(seed);
    auto opened = Maplog::Open(&env_, "r" + std::to_string(seed));
    ASSERT_TRUE(opened.ok());
    log_ = std::move(*opened);
    log_->set_use_skippy(false);
    auto next = [&seed]() {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      return seed >> 33;
    };
    std::unordered_map<storage::PageId, SnapshotId> mod_epoch;
    SptCursor cursor;
    SnapshotPageTable previous;  // the cursor's SPT at its last seek
    int delta_checks = 0, gaps = 0, moves = 0;
    auto seek = [&](SnapshotId target) {
      SptBuildStats stats;
      int64_t delta = 0;
      const SnapshotId from = cursor.position();
      ASSERT_TRUE(cursor.Seek(*log_, target, &stats, &delta).ok());
      SnapshotPageTable cold;
      uint64_t resume = 0;
      ASSERT_TRUE(log_->BuildSpt(target, &cold, &resume, nullptr).ok());
      const SnapshotPageTable table = Resolved(*log_, cursor, all_pages);
      for (storage::PageId page : all_pages) {
        auto want = cold.find(page);
        const PageCapture* got = log_->Resolve(page, target);
        ASSERT_EQ(got != nullptr, want != cold.end())
            << "snapshot " << target << " page " << page;
        ASSERT_EQ(table.count(page), cold.count(page));
        if (got == nullptr) continue;
        EXPECT_TRUE((SptEntry{got->offset, got->start}) == want->second)
            << "snapshot " << target << " page " << page;
        EXPECT_TRUE(table.at(page) == want->second);
      }
      EXPECT_EQ(cursor.last_delta_valid(),
                from != kNoSnapshot && target >= from);
      if (cursor.last_delta_valid()) {
        ++delta_checks;
        const std::vector<storage::PageId>& d = cursor.last_delta();
        for (storage::PageId page : all_pages) {
          // Moved: the cursor's resolution at its last position differs
          // from its resolution now, or the bytes differ (resolved over
          // the whole log, an absent page reads the current database at
          // both snapshots).
          auto before = previous.find(page);
          auto after = table.find(page);
          const PageCapture* bytes_before = log_->Resolve(page, from);
          const PageCapture* bytes_after = log_->Resolve(page, target);
          const bool moved =
              (before == previous.end()) != (after == table.end()) ||
              (before != previous.end() &&
               !(before->second == after->second)) ||
              bytes_before != bytes_after;
          if (!moved) continue;
          ++moves;
          EXPECT_NE(std::find(d.begin(), d.end(), page), d.end())
              << "page " << page << " moved from " << from << " to "
              << target << " outside the delta";
        }
      }
      previous = table;
    };
    for (SnapshotId s = 1; s <= kSnapshots; ++s) {
      ASSERT_TRUE(log_->AppendSnapshotMark(s).ok());
      const int ops = static_cast<int>(next() % 8);
      for (int op = 0; op < ops; ++op) {
        const auto page = static_cast<storage::PageId>(1 + next() % kPages);
        const SnapshotId epoch = mod_epoch.count(page) ? mod_epoch[page] : 0;
        if (epoch >= s) continue;  // already captured in this epoch
        if (next() % 5 == 0) {
          ASSERT_TRUE(log_->AppendAlloc(page, s).ok());
          ++gaps;
        } else {
          ASSERT_TRUE(log_->AppendCapture(page, epoch + 1, s,
                                          (s * 100 + op) * 4096)
                          .ok());
        }
        mod_epoch[page] = s;
        // Mid-epoch seeks: the next one must pick up what follows.
        if (next() % 9 == 0) seek(cursor.position() == kNoSnapshot
                                      ? s
                                      : cursor.position());
      }
      SnapshotId target = s;
      if (s % 6 == 0) target = 1 + next() % s;      // backward (or equal)
      else if (next() % 4 == 0) target = cursor.position() == kNoSnapshot
                                             ? s
                                             : cursor.position();
      seek(target);
    }
    EXPECT_GT(delta_checks, 40);
    EXPECT_GT(moves, 40);
    EXPECT_GT(gaps, 3);
  }
}

TEST_F(MaplogTest, BoundariesSurviveReopen) {
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 1, 1, 0).ok());
  ASSERT_TRUE(log_->AppendSnapshotMark(2).ok());
  log_.reset();

  auto reopened = Maplog::Open(&env_, "m.maplog");
  ASSERT_TRUE(reopened.ok());
  SnapshotPageTable spt;
  uint64_t resume = 0;
  ASSERT_TRUE((*reopened)->BuildSpt(1, &spt, &resume, nullptr).ok());
  EXPECT_EQ(spt.size(), 1u);
  ASSERT_TRUE((*reopened)->BuildSpt(2, &spt, &resume, nullptr).ok());
  EXPECT_TRUE(spt.empty());
}

TEST_F(MaplogTest, ReopenTruncatesPartialTailEntry) {
  ASSERT_TRUE(log_->AppendSnapshotMark(1).ok());
  ASSERT_TRUE(log_->AppendCapture(10, 1, 1, 4096).ok());
  uint64_t entries = log_->entry_count();
  uint64_t clean = log_->SizeBytes();
  log_.reset();

  // A crash mid-append leaves a partial trailing entry; reopen must
  // truncate back to the last complete entry.
  auto f = env_.OpenFile("m.maplog");
  ASSERT_TRUE(f.ok());
  uint64_t off;
  ASSERT_TRUE((*f)->Append(5, "torn!", &off).ok());
  f->reset();

  auto reopened = Maplog::Open(&env_, "m.maplog");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->entry_count(), entries);
  EXPECT_EQ((*reopened)->SizeBytes(), clean);
  SnapshotPageTable spt;
  uint64_t resume = 0;
  ASSERT_TRUE((*reopened)->BuildSpt(1, &spt, &resume, nullptr).ok());
  EXPECT_EQ(spt.size(), 1u);
  EXPECT_EQ(spt[10].offset, 4096u);
  // The recovered log still enforces sequential marks from the right spot.
  EXPECT_FALSE((*reopened)->AppendSnapshotMark(3).ok());
  ASSERT_TRUE((*reopened)->AppendSnapshotMark(2).ok());
}

}  // namespace
}  // namespace rql::retro
