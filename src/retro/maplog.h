#ifndef RQL_RETRO_MAPLOG_H_
#define RQL_RETRO_MAPLOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/env.h"
#include "storage/page.h"

namespace rql::retro {

/// Snapshot identifier. Snapshots are numbered 1, 2, 3, ... in declaration
/// order; 0 means "no snapshot" / the current state.
using SnapshotId = uint32_t;
inline constexpr SnapshotId kNoSnapshot = 0;

/// One fixed-width record in the Maplog.
struct MaplogEntry {
  enum Type : uint8_t {
    /// A pre-state capture: `page` as of snapshots [start_snap, end_snap]
    /// lives in the Pagelog at `pagelog_offset`. The range is the
    /// content's whole validity interval, so `start_snap` names the bytes
    /// (the memo's page token, PageToken in snapshot_store.h).
    kCapture = 1,
    /// Declaration boundary for snapshot `end_snap`; marks where the scan
    /// for that snapshot's page table begins.
    kSnapshotMark = 2,
    /// `page` was (re)allocated during the epoch following snapshot
    /// `end_snap`; used only to recover modification epochs on reopen.
    /// TruncateHistory also writes one in place of a page's last capture
    /// when it drops it, so compaction never moves a mod epoch.
    kAlloc = 3,
    /// History before snapshot `end_snap` has been truncated away
    /// (TruncateHistory); snapshots below it are no longer reconstructable.
    kTruncate = 4,
  };

  uint8_t type = 0;
  uint8_t pad[3] = {};
  storage::PageId page = storage::kInvalidPageId;
  SnapshotId start_snap = 0;
  SnapshotId end_snap = 0;
  uint64_t pagelog_offset = 0;
};

static_assert(sizeof(MaplogEntry) == 24);

/// Aggregate cost of one snapshot-page-table construction; feeds the
/// "SPT build" bar in the paper's cost breakdowns (Figures 8-13).
struct SptBuildStats {
  int64_t entries_scanned = 0;
  int64_t maplog_pages_read = 0;  // entries_scanned rounded up to log pages
  int64_t cpu_us = 0;
};

/// Where a snapshot page table finds one page: the Pagelog record holding
/// its content, and the first snapshot that content belongs to (the
/// capture's start_snap). The offset locates the bytes; `start` names
/// them: a page holds one content per validity interval, so (page, start)
/// identifies the same bytes in every snapshot that maps it, before and
/// after compaction moves the offset.
struct SptEntry {
  uint64_t offset = 0;
  SnapshotId start = 0;
  bool operator==(const SptEntry&) const = default;
};

/// The snapshot page table: for every page captured after snapshot S was
/// declared, its Pagelog location as of S. Pages absent from the table are
/// shared with the current database state.
using SnapshotPageTable = std::unordered_map<storage::PageId, SptEntry>;

/// One capture in the Maplog's page index: `page`'s content for snapshots
/// [start, end] lives in the Pagelog at `offset`, recorded by log entry
/// `index`.
struct PageCapture {
  SnapshotId start = 0;
  SnapshotId end = 0;
  uint64_t offset = 0;
  uint64_t index = 0;
};

/// The on-disk log-structured list of page->Pagelog-location mappings
/// (Shaull et al., "Skippy", SIGMOD'08). Mappings are appended in capture
/// order, so entries relevant to snapshot S form a suffix starting at S's
/// declaration mark; an efficient forward scan of that suffix constructs
/// SPT(S).
///
/// Two scan strategies are provided:
///   * linear — read the whole suffix (the naive baseline);
///   * Skippy skip levels (the default) — precomputed runs of 2^k epochs
///     keeping only the first mapping per page, so a scan reads each
///     page's mapping roughly once per level instead of once per
///     overwrite, giving the paper's ~n log n scan length.
/// An in-memory mirror of the log avoids per-entry file reads; a scan
/// still counts the log pages it covers (SptBuildStats::maplog_pages_read),
/// which the figure benches charge a simulated device read each.
///
/// Beside the mirror the log keeps one page index: each page's captures in
/// log order. A page's capture ranges are disjoint and ascending, so the
/// capture covering a snapshot, if any, is found by binary search
/// (Resolve). Snapshot-set cursors and the views they open resolve pages
/// through this one shared index instead of building tables of their own.
/// Appends extend it; opening the log (and so TruncateHistory's reopen)
/// rebuilds it. Like the rest of the log it is guarded by the owning
/// store's lock: appends under the writer's, Resolve under the reader's.
class Maplog {
 public:
  static Result<std::unique_ptr<Maplog>> Open(storage::Env* env,
                                              const std::string& name);

  /// Appends a capture record. `start..end` is the contiguous range of
  /// snapshot ids whose as-of state of `page` is the recorded pre-state.
  Status AppendCapture(storage::PageId page, SnapshotId start, SnapshotId end,
                       uint64_t pagelog_offset);

  /// Appends the declaration boundary for snapshot `snap`.
  Status AppendSnapshotMark(SnapshotId snap);

  /// Appends an allocation record for `page` in the epoch after `latest`.
  Status AppendAlloc(storage::PageId page, SnapshotId latest);

  /// Appends a truncation record: snapshots below `keep_from` are gone.
  Status AppendTruncate(SnapshotId keep_from);

  /// The oldest snapshot that can still be opened (1 if never truncated).
  SnapshotId earliest() const { return earliest_; }

  /// Read-only view of the in-memory mirror (history compaction).
  const std::vector<MaplogEntry>& entries() const { return entries_; }

  /// Builds SPT(snap) by scanning forward from snap's declaration mark.
  /// Also returns in `resume_index` the log index scans should resume from
  /// when refreshing the table after later captures.
  Status BuildSpt(SnapshotId snap, SnapshotPageTable* spt,
                  uint64_t* resume_index, SptBuildStats* stats) const;

  /// Extends `spt` with captures appended at or after `*resume_index`
  /// (exclusive of pages already mapped); advances `*resume_index`. Keeps
  /// an OpenSnapshot view consistent across interleaved updates.
  Status RefreshSpt(SnapshotId snap, SnapshotPageTable* spt,
                    uint64_t* resume_index, SptBuildStats* stats) const;

  /// Where SPT(snap) finds `page`, counting only the captures appended
  /// before log index `limit`: the capture whose range covers `snap`, or
  /// nullptr when SPT(snap) does not map the page (it is shared with the
  /// current database, or was not yet allocated at `snap`). Gives exactly
  /// BuildSpt's answer. The pointer is valid until the next append.
  const PageCapture* Resolve(storage::PageId page, SnapshotId snap,
                             uint64_t limit = UINT64_MAX) const;

  /// Recovers per-page modification epochs: for each page, the id of the
  /// latest snapshot declared before the page's last recorded modification.
  /// Also recovers the number of declared snapshots and (optionally) each
  /// page's most recent Pagelog capture offset, used as the diff base in
  /// PagelogMode::kDiff.
  Status RecoverModEpochs(
      std::unordered_map<storage::PageId, SnapshotId>* mod_epochs,
      SnapshotId* latest_snapshot,
      std::unordered_map<storage::PageId, uint64_t>* last_offsets =
          nullptr) const;

  uint64_t entry_count() const { return entry_count_; }
  uint64_t SizeBytes() const { return file_->Size(); }

  /// Flushes appended entries to stable storage. Called (after
  /// Pagelog::Sync) before every page-store commit becomes durable, and
  /// after each snapshot declaration mark.
  Status Sync() { return file_->Sync(); }

  /// Selects the SPT scan strategy (default: Skippy skip levels).
  void set_use_skippy(bool use) { use_skippy_ = use; }
  bool use_skippy() const { return use_skippy_; }

  /// Materializes the skip-level runs for the whole current history. Retro
  /// maintains Skippy incrementally as snapshots are declared; this plays
  /// that role after opening an existing log, so the construction cost is
  /// not charged to the first query's SPT-build time.
  Status PrewarmSkippy() const;

  /// Entries per on-disk log page; used to convert scan lengths to I/O.
  static constexpr int64_t kEntriesPerPage =
      storage::kPageSize / sizeof(MaplogEntry);

  /// Charges a scan of `entries` log entries to `stats` (when non-null):
  /// the entries and the log pages they fill.
  static void ChargeScan(int64_t entries, SptBuildStats* stats) {
    if (stats == nullptr) return;
    stats->entries_scanned += entries;
    stats->maplog_pages_read += (entries + kEntriesPerPage - 1) /
                                kEntriesPerPage;
  }

 private:
  friend class SptCursor;

  explicit Maplog(std::unique_ptr<storage::File> file)
      : file_(std::move(file)) {}

  Status LoadMirror();
  Status AppendEntry(const MaplogEntry& entry);
  /// Adds entry `index` to the page index if it is a capture.
  void IndexEntry(uint64_t index);

  /// `page`'s first capture appended before `limit` whose range ends at
  /// or after `snap`: the one covering `snap`, or the next one after an
  /// allocation gap. nullptr when there is none.
  const PageCapture* NextCapture(storage::PageId page, SnapshotId snap,
                                 uint64_t limit) const;

  /// NotFound unless `snap` is declared and not truncated away.
  Status CheckReadable(SnapshotId snap) const;

  /// Number of declared snapshots (== number of marks).
  SnapshotId latest() const {
    return static_cast<SnapshotId>(snap_mark_index_.size());
  }

  /// Index of the first entry of epoch `s` (entries appended after
  /// snapshot s's declaration mark).
  uint64_t EpochBegin(SnapshotId s) const { return snap_mark_index_[s - 1] + 1; }
  /// One past the last entry of epoch `s`.
  uint64_t EpochEnd(SnapshotId s) const {
    return s < latest() ? snap_mark_index_[s] : entry_count_;
  }

  Status BuildSptLinear(SnapshotId snap, SnapshotPageTable* spt,
                        SptBuildStats* stats) const;
  Status BuildSptSkippy(SnapshotId snap, SnapshotPageTable* spt,
                        SptBuildStats* stats) const;

  /// The Skippy run covering epochs [start, start + 2^level), containing
  /// the first capture per page in log order. Memoized (thread-safe); only
  /// called for closed epochs (start + 2^level - 1 < latest()), so the
  /// returned reference stays valid and immutable after the memo lock is
  /// released.
  const std::vector<MaplogEntry>& GetRun(uint32_t level,
                                         SnapshotId start) const;
  /// Requires runs_mu_ (GetRun recurses through this form).
  const std::vector<MaplogEntry>& GetRunLocked(uint32_t level,
                                               SnapshotId start) const;

  void ScanEntries(const MaplogEntry* entries, size_t count, SnapshotId snap,
                   SnapshotPageTable* spt) const;

  std::unique_ptr<storage::File> file_;
  uint64_t entry_count_ = 0;
  // snap_mark_index_[s-1] = log index of snapshot s's declaration mark.
  std::vector<uint64_t> snap_mark_index_;
  // In-memory mirror of the on-disk log.
  std::vector<MaplogEntry> entries_;
  // The page index: each page's captures in log order (see the class
  // comment).
  std::unordered_map<storage::PageId, std::vector<PageCapture>> captures_;
  SnapshotId earliest_ = 1;
  bool use_skippy_ = true;
  // Memoized skip-level runs, keyed by (level << 32) | start. Guarded by
  // runs_mu_: concurrent SPT builds (parallel snapshot readers) memoize
  // into the same map. Runs are built for closed epochs only, so a cached
  // run never goes stale while the lock is dropped.
  mutable std::mutex runs_mu_;
  mutable std::unordered_map<uint64_t, std::vector<MaplogEntry>> runs_;
};

/// Incremental SPT construction over an ascending snapshot set (the RQL
/// iteration-setup amortization path). The cursor holds no table: it is a
/// position plus an ingest mark (the log length at its last seek), and
/// SPT(position) is the Maplog's page index resolved as of that mark
/// (Resolve). A seek moves the position and the mark, so the first seek,
/// or a seek to a smaller id, costs O(1); an ascending seek also lists the
/// pages whose resolution may have moved (last_delta).
///
/// The modelled SPT charges are those of the Maplog scans the paper
/// builds tables with: a first or backward seek is charged a cold suffix
/// scan from the snapshot's declaration mark, an ascending seek the log
/// delta between the two declaration marks.
class SptCursor {
 public:
  /// Positions the cursor at `snap` as of the log's current length.
  /// `delta_entries`, when non-null, accumulates the number of log entries
  /// charged to ascending seeks.
  Status Seek(const Maplog& log, SnapshotId snap, SptBuildStats* stats,
              int64_t* delta_entries);

  SnapshotId position() const { return snap_; }

  /// SPT(position()) as of the last seek: where it maps `page`, or nullptr
  /// (Maplog::Resolve). A capture appended since is not seen until the
  /// next seek.
  const PageCapture* Resolve(const Maplog& log, storage::PageId page) const {
    return log.Resolve(page, snap_, ingested_);
  }

  /// After an ascending seek, the pages (sorted) whose resolution may
  /// differ from the previous position (a conservative superset: every
  /// page whose mapping — including absence — changed is listed; a listed
  /// page may turn out unchanged). A page modified between the two
  /// snapshots always has a capture expiring in that window, so content
  /// changes are covered too. Invalid after a rebase (first seek, backward
  /// seek, or a truncated prefix): there is no predecessor position to
  /// diff against.
  const std::vector<storage::PageId>& last_delta() const {
    return last_delta_;
  }
  bool last_delta_valid() const { return last_delta_valid_; }

 private:
  /// Lists in last_delta_ the pages that move between the current position
  /// and `snap` (> or == it), resolving the page index as of the old and
  /// the new ingest mark.
  void ComputeDelta(const Maplog& log, SnapshotId snap);

  SnapshotId snap_ = kNoSnapshot;
  uint64_t ingested_ = 0;  // log length at the last seek
  std::vector<storage::PageId> last_delta_;
  bool last_delta_valid_ = false;
};

}  // namespace rql::retro

#endif  // RQL_RETRO_MAPLOG_H_
