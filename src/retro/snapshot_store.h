#ifndef RQL_RETRO_SNAPSHOT_STORE_H_
#define RQL_RETRO_SNAPSHOT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cleanup.h"
#include "common/status.h"
#include "retro/iteration_stats.h"
#include "retro/maplog.h"
#include "retro/metrics.h"
#include "retro/pagelog.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/page_store.h"

namespace rql::retro {

class SnapshotStore;

/// One page a reader read, and the version token it resolved to: the
/// first snapshot whose state of the page holds the bytes read (the start
/// of the content's validity interval). A page holds one content per
/// interval, so equal tokens on one page mean equal bytes, whichever
/// snapshot resolved them. An archived page's token is its capture's
/// start_snap. A page the snapshot shares with the current database gets
/// ModEpoch + 1, which is exactly the start_snap the page's next capture
/// will record: archiving the page moves its bytes to the Pagelog but
/// leaves the token as it was.
struct PageToken {
  storage::PageId page = 0;
  uint64_t version = 0;
  bool operator==(const PageToken&) const = default;
};

/// A read-only, transactionally consistent view of the database as of a
/// declared snapshot. Page reads resolve through the snapshot page table:
/// captured pages come from the Pagelog (through the snapshot page cache);
/// pages never modified since the declaration are shared with, and read
/// from, the current database.
///
/// A view opened by OpenSnapshot starts from a built SPT. A view opened
/// by a SnapshotSet (a set view) starts with an empty table and maps each
/// archived page on its first touch, through the Maplog's page index
/// (Maplog::Resolve).
///
/// The view stays consistent across updates that commit while it is open:
/// when a read misses the SPT but the page has since been modified, the
/// view catches up with the Maplog suffix appended after it was built
/// (standing in for the MVCC guarantee BDB gives Retro). An OpenSnapshot
/// view rescans that suffix (Maplog::RefreshSpt); a set view resolves the
/// page over the whole log.
///
/// A view is owned by a single reader thread (each parallel RQL worker
/// opens its own); different views on the same store may read concurrently
/// with each other and with update transactions. Reads whose page is
/// already mapped by the view's SPT take no store lock at all — archive
/// records are immutable and the snapshot page cache synchronizes
/// internally — while SPT misses, and a set view's first touch of a page,
/// take the store's reader lock to consult mutable metadata.
class SnapshotView : public storage::PageReader {
 public:
  Status ReadPage(storage::PageId id, storage::Page* page) override;

  /// Pagelog offset of `id`'s archived version, for SPT-mapped pages. Two
  /// snapshots mapping a page to the same offset share one immutable
  /// archive record, so the offset is a stable cross-snapshot identity for
  /// the page's content (the scan-reuse key). Pages shared with the
  /// current database return false and record nothing: the caller falls
  /// back to ReadPage, which records them.
  bool PageVersion(storage::PageId id, uint64_t* version) override;

  /// Pins `id`'s archived version straight from the snapshot cache
  /// (SPT-mapped pages only; empty pin otherwise). Stats accounting is
  /// identical to ReadPage.
  Result<storage::PinnedPage> ReadPagePinned(storage::PageId id) override;

  SnapshotId id() const { return snap_; }

  /// What this view has cost since it was opened: its SPT build (or its
  /// set's seek), every read through it and every lock wait.
  const IterationStats& stats() const { return stats_; }

  /// Number of pages this snapshot does not share with the current state
  /// (for a set view: those resolved so far).
  uint64_t spt_size() const { return spt_.size(); }

  /// Arms (or with nullptr disarms) a (page -> version token) recorder:
  /// every read through this view records its page's token (PageToken) —
  /// the versioned read set the RQL memo validates entries against. Views
  /// belong to one reader, so each run (parallel workers directly,
  /// sequential runs through their SnapshotSet) records into its own map.
  /// The caller owns the map and must keep it alive while armed.
  void set_version_recorder(
      std::unordered_map<storage::PageId, uint64_t>* recorder) {
    version_recorder_ = recorder;
  }

  /// Bounded retry budget for transient Pagelog read failures (flaky
  /// media): a failed archive read through this view is re-issued up to
  /// `n` times before the error propagates. Each retry is counted in
  /// IterationStats::archive_read_retries. Default 0: fail fast.
  void set_archive_read_retries(int n) { archive_read_retries_ = n; }

 private:
  friend class SnapshotStore;
  friend class SnapshotSet;
  SnapshotView(SnapshotStore* store, SnapshotId snap)
      : store_(store), snap_(snap) {}

  /// Feeds (id, token) to the recorder, if armed. Last write wins.
  void RecordVersion(storage::PageId id, uint64_t token) {
    if (version_recorder_ != nullptr) (*version_recorder_)[id] = token;
  }

  /// Takes the store's reader lock, counting the wait in stats_.
  std::shared_lock<std::shared_mutex> LockStore();

  /// The SPT entry of `id` if the page is archived as of resume_index_:
  /// a set view resolves it on first touch, under the reader lock, and
  /// keeps the entry. nullptr for a page shared with the current database
  /// (or captured after resume_index_).
  const SptEntry* Mapped(storage::PageId id);
  /// A set view's first-touch resolution; requires the reader lock.
  const SptEntry* ResolveLocked(storage::PageId id);

  /// Reads a pre-state page through the snapshot cache, counting it in
  /// stats_. Takes no store lock: archive records are immutable, file
  /// reads are thread-safe, and the cache single-flights concurrent misses.
  Result<storage::PinnedPage> ReadArchivedPinned(uint64_t pagelog_offset);
  Status ReadArchived(uint64_t pagelog_offset, storage::Page* page);

  SnapshotStore* store_;
  SnapshotId snap_;
  SnapshotPageTable spt_;
  // The log length spt_ is complete up to (a set view: resolved up to).
  uint64_t resume_index_ = 0;
  // Opened by a SnapshotSet: spt_ holds only the pages resolved so far.
  bool set_view_ = false;
  std::unordered_map<storage::PageId, uint64_t>* version_recorder_ = nullptr;
  int archive_read_retries_ = 0;
  IterationStats stats_;
};

/// One RQL run's private snapshot-set cursor (iteration-setup
/// amortization), from SnapshotStore::BeginSnapshotSet. The cursor
/// (SptCursor) is a position over the Maplog's shared page index, so a
/// seek builds no table: the first seek, a backward one and the first
/// after a TruncateHistory (the handle remembers the truncate_epoch() it
/// last saw) each cost O(1), and an ascending one lists the pages whose
/// resolution moved. Views it opens resolve pages on first touch. The
/// handle belongs to one run on one thread; any number of handles may be
/// live on a store, and every call takes only the store's reader lock.
class SnapshotSet {
 public:
  /// Moves the cursor to `snap` ahead of the query that will open it (the
  /// replay probe). Returns true and fills `delta` with the pages whose
  /// mapping may differ from the cursor's previous position (a
  /// conservative superset — see SptCursor::last_delta) when the move was
  /// an incremental advance; returns false after a rebase (first
  /// snapshot of the set, a backward seek, a truncation), when no
  /// predecessor exists to diff against. The later Open of the same id
  /// re-seeks at zero incremental cost. The SPT work is added to `stats`
  /// when non-null; an Open's seek counts in the view it returns.
  Result<bool> Advance(SnapshotId snap, std::vector<storage::PageId>* delta,
                       IterationStats* stats = nullptr);

  /// Moves the cursor to `snap` and opens a set view of it: an as-of view
  /// that resolves each page on first touch (see SnapshotView).
  Result<std::unique_ptr<SnapshotView>> Open(SnapshotId snap);

  /// The snapshot the cursor last moved to (kNoSnapshot before the first
  /// call): the origin of the next Advance's delta.
  SnapshotId position() const { return cursor_.position(); }

  /// True when every page of `read_set` resolves at position() to its
  /// recorded token, exactly as a view opened there would record it.
  /// Resolves each page in the Maplog's page index as of the cursor's last
  /// seek, under one hold of the store's reader lock, recording nothing.
  /// A page the index does not map is shared with the current database
  /// unless the writer captured it after the cursor last moved (its mod
  /// epoch reached position()); that case, like a TruncateHistory since
  /// the last seek, is a conservative mismatch. Lets a rerun that keeps
  /// its recorded result table validate each read set right after
  /// Advance.
  ///
  /// `held`, when non-null, is a read set that held at the cursor's
  /// previous position. After an incremental advance, a page it records
  /// with the same token that the advance did not move (last_delta) holds
  /// here too, so it is not looked up: the argument the memo's delta fast
  /// path rests on, applied page by page.
  bool Validate(const std::vector<PageToken>& read_set,
                const std::vector<PageToken>* held = nullptr) const;

  /// Arms (or with nullptr disarms) the version recorder every view this
  /// set opens from now on carries (SnapshotView::set_version_recorder).
  void set_version_recorder(
      std::unordered_map<storage::PageId, uint64_t>* recorder) {
    version_recorder_ = recorder;
  }

 private:
  friend class SnapshotStore;
  SnapshotSet(SnapshotStore* store, uint64_t epoch)
      : store_(store), epoch_(epoch) {}

  /// Seeks the cursor to `snap`, rebasing first if the history was
  /// truncated since the last seek, and counts the SPT work in `stats`.
  /// Requires the store's reader lock.
  Status SeekLocked(SnapshotId snap, IterationStats* stats);

  SnapshotStore* store_;
  SptCursor cursor_;
  uint64_t epoch_;
  std::unordered_map<storage::PageId, uint64_t>* version_recorder_ = nullptr;
};

/// The Retro snapshot system: a transactional page store extended with
/// snapshot declaration at commit and page-level copy-on-write pre-state
/// capture (Shaull, Shrira, Liskov, USENIX ATC'14).
///
/// All mutations of the underlying database must go through this class so
/// the first modification of a page after a snapshot declaration copies the
/// page's pre-state into the Pagelog and records the mapping in the Maplog.
///
/// Thread model: mutations (update transactions, snapshot declaration,
/// history truncation) serialize on the exclusive half of a store-wide
/// reader/writer lock; snapshot-view reads take at most the shared half,
/// so any number of snapshot queries proceed concurrently with each other
/// and stay transactionally consistent against interleaved updates — the
/// paper's MVCC non-interference property, with reader-side scalability
/// instead of BDB's version store. Reads of SPT-mapped archive pages take
/// no store lock at all, and concurrent misses on the same archive page
/// coalesce into a single Pagelog read (IterationStats::coalesced_loads).
/// Cost counters belong to the readers (SnapshotView::stats), not the store.
/// Higher layers (sql::Database) remain single-threaded per connection.
struct SnapshotStoreOptions {
  /// Snapshot page cache capacity in pages; 0 = unbounded. The paper
  /// assumes the cache holds one RQL query's working set.
  uint64_t snapshot_cache_pages = 0;
  /// Archive representation: full pages (Retro baseline) or Thresher-style
  /// adaptive page diffs (smaller archive, costlier reconstruction).
  PagelogMode pagelog_mode = PagelogMode::kFull;
};

class SnapshotStore : public storage::PageWriter {
 public:
  using Options = SnapshotStoreOptions;

  /// Opens the database `name` (files <name>.db, <name>.pagelog,
  /// <name>.maplog inside `env`), recovering snapshot state if present.
  static Result<std::unique_ptr<SnapshotStore>> Open(
      storage::Env* env, const std::string& name,
      Options options = Options());

  // --- storage::PageWriter (current state) ------------------------------
  Result<storage::PageId> AllocatePage() override;
  Status FreePage(storage::PageId id) override;
  Status ReadPage(storage::PageId id, storage::Page* page) override;
  Status WritePage(storage::PageId id, const storage::Page& page) override;

  // --- transactions ------------------------------------------------------
  /// Begins an explicit transaction. Writes outside a transaction behave
  /// as single-statement transactions.
  Status Begin();

  /// Commits; with `declare_snapshot` implements COMMIT WITH SNAPSHOT: the
  /// new snapshot reflects this transaction and everything before it.
  /// The new id is returned through `declared` when non-null.
  Status Commit(bool declare_snapshot = false, SnapshotId* declared = nullptr);

  /// Rolls back page contents and allocations made by the transaction.
  Status Rollback();

  bool in_transaction() const { return in_txn_; }

  /// Declares a snapshot outside an explicit transaction (an empty
  /// BEGIN; COMMIT WITH SNAPSHOT; pair).
  Result<SnapshotId> DeclareSnapshot();

  SnapshotId latest_snapshot() const { return latest_snap_; }

  /// Oldest snapshot still reconstructable (1 unless truncated).
  SnapshotId earliest_snapshot() const { return maplog_->earliest(); }

  /// Whether `snap` can be opened now: declared, and not dropped by a
  /// TruncateHistory (earliest_snapshot() <= snap <= latest_snapshot()).
  /// Safe beside writers: takes the reader lock.
  bool Readable(SnapshotId snap) const;

  /// Retention: permanently drops snapshots with id < `keep_from` and
  /// compacts the Pagelog/Maplog, reclaiming the space their exclusive
  /// pre-states occupied. Snapshot ids are preserved; opening a dropped
  /// snapshot fails with NotFound. Must not run inside a transaction, and
  /// invalidates any open SnapshotView. Crash-safe: the swap completes or
  /// rolls back on the next Open.
  Status TruncateHistory(SnapshotId keep_from);

  // --- snapshot reads -----------------------------------------------------
  /// Builds SPT(snap) and returns a consistent as-of view.
  Result<std::unique_ptr<SnapshotView>> OpenSnapshot(SnapshotId snap);

  /// Begins an RQL snapshot set: a cursor the caller owns (see
  /// SnapshotSet). It must not outlive the store.
  std::unique_ptr<SnapshotSet> BeginSnapshotSet() {
    return std::unique_ptr<SnapshotSet>(
        new SnapshotSet(this, truncate_epoch()));
  }

  /// When enabled, concurrent OpenSnapshot calls (SnapshotSet::Open derives
  /// its own tables) on the same snapshot id share one SPT build: the first
  /// caller scans the Maplog, the others block on that build and copy its
  /// result (shared_spt_builds_total), and later opens of the
  /// same id reuse the cached table. A cached table built earlier is
  /// sound because its recorded resume index makes the view catch up from
  /// the Maplog suffix on demand, exactly as a freshly built SPT does.
  /// The engine enables this when runs attach a store-scoped
  /// SharedScanCache; TruncateHistory drops every cached table.
  void set_share_spt_builds(bool on) {
    share_spt_builds_.store(on, std::memory_order_relaxed);
  }
  bool share_spt_builds() const {
    return share_spt_builds_.load(std::memory_order_relaxed);
  }
  /// Monotonic count of SPT builds served from another open's build
  /// (cached table or in-flight wait): the store-wide view of cross-run
  /// sharing, which no single reader's counters can show.
  int64_t shared_spt_builds_total() const {
    return shared_spt_builds_total_.load(std::memory_order_relaxed);
  }

  /// Arms (or with nullptr disarms) a histogram observing, per successful
  /// archive read, the diff-chain depth the read walked (records touched
  /// minus one — identical to Pagelog::DepthAt for the read's offset, but
  /// measured for free from the fetch counter; always 0 in kFull mode).
  /// The histogram is internally synchronized and must outlive its
  /// registration (registry histograms live as long as the registry).
  /// Engines sharing a store share the slot: last writer wins, which is
  /// acceptable for a pure observability feed.
  void set_diff_depth_histogram(MetricsRegistry::Histogram* hist) {
    diff_depth_hist_.store(hist, std::memory_order_release);
  }

  /// Monotonic count of completed TruncateHistory compactions. Pagelog
  /// offsets are only comparable within one epoch: compaction rewrites the
  /// log and recycles offsets, so a snapshot-set cursor records the epoch
  /// it was built in and rebases when the epoch moved.
  uint64_t truncate_epoch() const {
    return truncate_epoch_.load(std::memory_order_acquire);
  }

  // --- instrumentation ----------------------------------------------------
  /// Drops all cached snapshot pages (cold-cache experiment setup). The
  /// cache synchronizes internally; call before readers start if an
  /// all-cold measurement is intended.
  void ClearSnapshotCache() { snapshot_cache_.Clear(); }
  storage::BufferPool* snapshot_cache() { return &snapshot_cache_; }

  /// Registers observability gauges for the store and its components on
  /// `registry` (any type with `SetGauge(name, fn)`, i.e.
  /// retro::MetricsRegistry): `<prefix>.latest_snapshot`,
  /// `<prefix>.earliest_snapshot`, plus the snapshot cache's pool gauges
  /// under `<prefix>.cache.*` and the archive's under
  /// `<prefix>.pagelog.*`. Gauges read live component state — they cannot
  /// drift from the structs they mirror — but they capture `this`: the
  /// returned handle removes every gauge (the store's own and its
  /// components') on destruction and MUST NOT outlive the store or the
  /// registry.
  template <typename Registry>
  [[nodiscard]] ScopedCleanup RegisterMetrics(
      Registry* registry, const std::string& prefix = "snapshot_store") const {
    const SnapshotStore* store = this;
    registry->SetGauge(prefix + ".latest_snapshot", [store] {
      return static_cast<int64_t>(store->latest_snapshot());
    });
    registry->SetGauge(prefix + ".earliest_snapshot", [store] {
      return static_cast<int64_t>(store->earliest_snapshot());
    });
    ScopedCleanup cleanup(
        [registry, prefix] { registry->RemoveGaugesWithPrefix(prefix + "."); });
    // Fold the components' handles in so one handle scopes everything the
    // store registered (dropping a child's return here would deregister
    // its gauges immediately).
    cleanup.Merge(snapshot_cache_.RegisterMetrics(registry, prefix + ".cache"));
    cleanup.Merge(pagelog_->RegisterMetrics(registry, prefix + ".pagelog"));
    return cleanup;
  }

  storage::PageStore* page_store() { return store_.get(); }
  Pagelog* pagelog() { return pagelog_.get(); }
  Maplog* maplog() { return maplog_.get(); }

  /// Root-slot passthroughs (catalog roots live in the page-store header).
  Result<storage::PageId> GetRoot(uint32_t slot) const {
    return store_->GetRoot(slot);
  }
  Status SetRoot(uint32_t slot, storage::PageId id) {
    return store_->SetRoot(slot, id);
  }

 private:
  friend class SnapshotView;
  friend class SnapshotSet;

  SnapshotStore(Options options) : options_(options), snapshot_cache_(0) {}

  /// Completes (or discards) an interrupted TruncateHistory swap.
  static Status RecoverTruncation(storage::Env* env, const std::string& name);

  /// Copies the pre-state of `id` into the Pagelog if this is the first
  /// modification since the latest snapshot declaration. `current` may
  /// pass the already-read page content to avoid a second read.
  Status CaptureIfNeeded(storage::PageId id, const storage::Page* current);

  /// The snapshot-cache loader for archive offset keys: a Pagelog read,
  /// counting records into `*fetches`.
  storage::BufferPool::Loader MakeArchiveLoader(int64_t* fetches);

  /// Requires mu_ held exclusively.
  Result<SnapshotId> DeclareSnapshotLocked();

  /// OpenSnapshot's shared-build path (set_share_spt_builds): single-
  /// flights BuildSpt per snapshot id across concurrent callers and
  /// caches the result. Requires mu_ held shared (BuildSpt only reads the
  /// Maplog, which is stable under the reader lock).
  Status FillSptShared(SnapshotId snap, SnapshotView* view);

  SnapshotId ModEpoch(storage::PageId id) const {
    auto it = mod_epoch_.find(id);
    return it == mod_epoch_.end() ? kNoSnapshot : it->second;
  }

  /// Token of `id`'s current content (PageToken): the first snapshot
  /// declared after its last modification, which is the start_snap its next
  /// capture records. Requires mu_ (either half).
  uint64_t CurrentToken(storage::PageId id) const {
    return static_cast<uint64_t>(ModEpoch(id)) + 1;
  }

  /// Writers (mutations) take this exclusively; snapshot readers take the
  /// shared half only when they must consult mutable store metadata. See
  /// the thread model above.
  mutable std::shared_mutex mu_;

  Options options_;
  storage::Env* env_ = nullptr;
  std::string name_;
  std::unique_ptr<storage::PageStore> store_;
  std::unique_ptr<Pagelog> pagelog_;
  std::unique_ptr<Maplog> maplog_;
  storage::BufferPool snapshot_cache_;

  SnapshotId latest_snap_ = kNoSnapshot;
  // Latest snapshot declared before each page's last modification. Pages
  // absent were last modified before snapshot 1 (or never).
  std::unordered_map<storage::PageId, SnapshotId> mod_epoch_;
  // Most recent archive record per page; the diff base in kDiff mode.
  std::unordered_map<storage::PageId, uint64_t> last_capture_offset_;

  // Transaction state: mutations buffer in the page store's WAL batch, so
  // commit is atomic and rollback simply drops the batch.
  bool in_txn_ = false;

  // Cross-run SPT sharing (set_share_spt_builds). An entry is created by
  // the first opener of a snapshot and completed under its own mutex;
  // `spt_share_mu_` only guards the map. Builds run under the shared half
  // of mu_, so TruncateHistory (exclusive) never races one and can just
  // drop the map.
  struct SharedSpt {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    SnapshotPageTable table;
    uint64_t resume_index = 0;
  };
  std::atomic<bool> share_spt_builds_{false};
  std::atomic<int64_t> shared_spt_builds_total_{0};
  mutable std::mutex spt_share_mu_;
  std::unordered_map<SnapshotId, std::shared_ptr<SharedSpt>> spt_shared_;
  std::atomic<uint64_t> truncate_epoch_{0};
  std::atomic<MetricsRegistry::Histogram*> diff_depth_hist_{nullptr};
};

}  // namespace rql::retro

#endif  // RQL_RETRO_SNAPSHOT_STORE_H_
