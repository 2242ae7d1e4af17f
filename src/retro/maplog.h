#ifndef RQL_RETRO_MAPLOG_H_
#define RQL_RETRO_MAPLOG_H_

#include <cstdint>
#include <map>
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
/// An in-memory mirror of the log avoids per-entry file reads; the
/// simulated Maplog I/O cost is still charged per log page scanned.
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
  /// (exclusive of pages already mapped); advances `*resume_index`. Used to
  /// keep an open snapshot view consistent across interleaved updates.
  Status RefreshSpt(SnapshotId snap, SnapshotPageTable* spt,
                    uint64_t* resume_index, SptBuildStats* stats) const;

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

 private:
  friend class SptCursor;

  explicit Maplog(std::unique_ptr<storage::File> file)
      : file_(std::move(file)) {}

  Status LoadMirror();
  Status AppendEntry(const MaplogEntry& entry);

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
/// iteration-setup amortization path). The first Seek performs one cold
/// suffix scan and organizes the captures into per-page chains; every
/// later Seek to a larger snapshot advances per-page chain cursors instead
/// of re-scanning the suffix, and is charged only the Maplog delta between
/// the two declaration marks — the entries a physical delta scan would
/// read. A chain whose captures are exhausted means the page is shared
/// with the current database and is evicted from the table.
///
/// Key invariant (why only chain-cursor advances are needed): for a given
/// page, capture ranges are appended in increasing [start, end] order and
/// are disjoint, so SPT(s+1) differs from SPT(s) only by (a) entries whose
/// range ended at s (evicted or moved to the page's next capture) and
/// (b) pages whose next capture's range begins at s+1 after an allocation
/// gap. Both are found via expiry/wake buckets keyed by snapshot id — no
/// log entries are touched except newly appended ones (Ingest).
class SptCursor {
 public:
  /// Positions the cursor at `snap`, leaving SPT(snap) in table(). An
  /// ascending seek advances incrementally; the first seek — or a seek to
  /// a smaller id — rebuilds cold with a linear suffix scan. Entries
  /// appended to the log since the last seek are ingested, so interleaved
  /// updates are safe. `delta_entries`, when non-null, accumulates the
  /// number of log entries covered by incremental advances.
  Status Seek(const Maplog& log, SnapshotId snap, SptBuildStats* stats,
              int64_t* delta_entries);

  const SnapshotPageTable& table() const { return table_; }
  SnapshotId position() const { return snap_; }

  /// After an incremental advance, the pages whose table() mapping may
  /// differ from the previous position (a conservative superset: every page
  /// whose mapping — including absence — changed is listed; a listed page
  /// may turn out unchanged). A page modified between the two snapshots
  /// always has a capture expiring in that window, so content changes are
  /// covered too. Invalid after a rebase (first seek, backward seek, or a
  /// truncated prefix): there is no predecessor position to diff against.
  const std::vector<storage::PageId>& last_delta() const {
    return last_delta_;
  }
  bool last_delta_valid() const { return last_delta_valid_; }

 private:
  struct Capture {
    SnapshotId start = 0;
    SnapshotId end = 0;
    uint64_t offset = 0;
  };
  struct Chain {
    size_t next = 0;  // active (or next future) capture; caps.size() = done
    std::vector<Capture> caps;
  };

  Status Rebase(const Maplog& log, SnapshotId snap, SptBuildStats* stats);
  void Advance(const Maplog& log, SnapshotId snap, SptBuildStats* stats,
               int64_t* delta_entries);
  /// Folds log entries appended since the last seek into the chains;
  /// returns the pages whose chain was exhausted before the new captures
  /// (they have no pending wake entry and must be repositioned).
  void Ingest(const Maplog& log, std::vector<storage::PageId>* reawakened);
  /// Advances `page`'s chain cursor past captures that ended before the
  /// current position and places the page in (or evicts it from) the
  /// table, scheduling the next wake-up.
  void Reposition(storage::PageId page);

  SnapshotId snap_ = kNoSnapshot;
  uint64_t ingested_ = 0;  // log entries already folded into chains_
  std::unordered_map<storage::PageId, Chain> chains_;
  // Pages whose active capture expires (key = end + 1) or whose next
  // capture begins (key = start) at the keyed snapshot; drained in id
  // order as the cursor advances.
  std::map<SnapshotId, std::vector<storage::PageId>> wake_;
  SnapshotPageTable table_;
  std::vector<storage::PageId> last_delta_;
  bool last_delta_valid_ = false;
};

}  // namespace rql::retro

#endif  // RQL_RETRO_MAPLOG_H_
