#ifndef RQL_RQL_MEMO_TABLE_H_
#define RQL_RQL_MEMO_TABLE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "retro/snapshot_store.h"  // SnapshotId, PageToken

namespace rql::retro {

/// One memoized Qq iteration: everything needed to replay the iteration
/// through a mechanism without executing Qq. Rows are stored encoded
/// (sql::EncodeRow payloads) so the table depends only on storage.
struct MemoEntry {
  /// Canonicalized query/mechanism fingerprint (sql::QueryFingerprint of
  /// the original Qq text salted with the mechanism name).
  uint64_t fingerprint = 0;
  /// Snapshot the entry was recorded at (the first publisher's iteration).
  SnapshotId snapshot = kNoSnapshot;
  /// Sorted by page id; the pages Qq read and the version tokens they
  /// resolved to (PageToken: the snapshot each page's content starts at).
  /// A probe replays the entry only when every recorded token equals the
  /// probing snapshot's resolution, i.e. Qq would read the same bytes.
  std::vector<PageToken> read_set;
  /// Qq calls current_snapshot(), so its rows depend on the snapshot id as
  /// well as on the bytes read: the key names the snapshot, and the entry
  /// never serves another snapshot with an identical read set.
  bool per_snapshot = false;
  std::vector<std::string> columns;
  std::vector<std::string> rows;  // sql::EncodeRow payloads, Qq order
};

struct MemoTableOptions {
  /// LRU bound, in approximate entry bytes (MemoTable::EntryBytes).
  uint64_t max_bytes = 64ull << 20;
};

struct MemoPublishResult {
  /// Entries the LRU byte bound evicted to make room.
  int64_t evictions = 0;
  /// False when an entry with the same (fingerprint, read-set digest) key
  /// already existed — first publish wins; the new snapshot is registered
  /// as an alias of the existing entry unless the two differ.
  bool inserted = false;
};

/// A bounded, version-keyed memo of per-iteration RQL Qq results: a run
/// memoizes exactly when RqlOptions::memo points at one. Key =
/// (query/mechanism fingerprint, digest of the sorted page-token read
/// set, plus the snapshot for a per_snapshot entry); probing is by
/// (fingerprint, snapshot id), which resolves through an index to the
/// entry last published or aliased for that snapshot. Tokens name page
/// content, not its location, so snapshots that read the same bytes share
/// one entry, and a writer archiving a page the snapshot shares with the
/// current database leaves the entry valid.
///
/// The table lives in memory only: its entries die with it, and a process
/// restart starts cold. It must live and die with the store it memoizes:
/// a registration names a snapshot id of that store, so pairing a table
/// with a *different* store (rather than a later state of the same one,
/// reopened or not) is undefined. The server owns one for all its
/// sessions; a fresh table given to a single run is a run-scoped memo.
///
/// Thread-safe: one mutex serializes probes and publishes, and publishes
/// are first-publish-wins, so any number of engines (cross-client reuse)
/// may share one table.
class MemoTable {
 public:
  explicit MemoTable(MemoTableOptions options = MemoTableOptions())
      : options_(options) {}

  /// Entry registered for (fingerprint, snapshot), or nullptr. A
  /// registration is a proof: it was made from an entry whose tokens its
  /// publisher saw at the snapshot, and a declared snapshot's bytes (and
  /// so their tokens) never change. A returned entry therefore replays as
  /// it is while the snapshot is still readable; the caller checks only
  /// that (a TruncateHistory through an engine without this memo drops no
  /// registration). Touches the entry's LRU recency.
  std::shared_ptr<const MemoEntry> Probe(uint64_t fingerprint,
                                         SnapshotId snapshot);

  /// Inserts `entry` (first publish of its key wins) and registers it for
  /// entry->snapshot. The caller vouches that the entry's tokens are what
  /// Qq reads at that snapshot: it executed there, or replayed a
  /// predecessor whose read set the step's delta missed. When the key
  /// exists already, the snapshot becomes an alias of the stored entry
  /// only if the two would replay alike (equal read sets, and the same
  /// snapshot for a per_snapshot entry); on a digest collision it stays
  /// unregistered. Evicts least-recently-used entries beyond
  /// MemoTableOptions::max_bytes. An entry left with no registered
  /// snapshot (its last one re-published under another read set) is
  /// erased.
  MemoPublishResult Publish(std::shared_ptr<const MemoEntry> entry);

  /// Retention hook: drops every snapshot registration below `keep_from`,
  /// and any entry left without a registration. Called by
  /// RqlEngine::TruncateHistory; entries for
  /// surviving snapshots stay, and stay valid: compaction moves Pagelog
  /// offsets but keeps every surviving snapshot's bytes, and the tokens
  /// that name them.
  void InvalidateBelow(SnapshotId keep_from);

  /// Order-independent digest of a read set: the set is sorted by page id
  /// before hashing, so recording order never changes the key.
  static uint64_t ReadSetDigest(std::vector<PageToken> read_set);

  /// Approximate size of one entry: its fields and rows, serialized.
  static uint64_t EntryBytes(const MemoEntry& entry);

  // --- instrumentation ---------------------------------------------------
  uint64_t bytes() const;        // live entry bytes (LRU-bounded)
  size_t entry_count() const;    // live entries
  int64_t evictions() const;     // lifetime LRU evictions
  const MemoTableOptions& options() const { return options_; }

 private:
  struct Key {
    uint64_t fingerprint = 0;
    uint64_t digest = 0;
    bool operator==(const Key& o) const {
      return fingerprint == o.fingerprint && digest == o.digest;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix-style mix; the inputs are already 64-bit hashes.
      uint64_t x = k.fingerprint ^ (k.digest * 0x9E3779B97F4A7C15ull);
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Stored {
    std::shared_ptr<const MemoEntry> entry;
    uint64_t bytes = 0;
    /// Snapshots probing to this entry (the first publisher plus aliases);
    /// eviction erases exactly these probe-index rows.
    std::vector<SnapshotId> snapshots;
    std::list<Key>::iterator lru_it;
  };

  friend struct MemoTableTestPeer;  // forges a digest collision

  /// The entry's table key: (fingerprint, read-set digest), with the
  /// digest also naming the entry's snapshot when it is per_snapshot.
  static Key KeyOf(const MemoEntry& entry);

  /// Publish under `key`, which is KeyOf(*entry) outside tests.
  MemoPublishResult PublishAs(const Key& key,
                              std::shared_ptr<const MemoEntry> entry);

  void TouchLocked(Stored* stored);
  void RegisterSnapshotLocked(const Key& key, SnapshotId snapshot);
  /// Drops `snapshot` from the entry under `key` (the caller owns the
  /// probe_ row) and erases the entry once no snapshot is left on it.
  void UnregisterLocked(Key key, SnapshotId snapshot);
  /// Evicts least-recently-used entries until the byte bound holds,
  /// never `keep` (the entry just published); returns how many went.
  int64_t EnforceBoundLocked(const Key& keep);
  void EraseLocked(const Key& key);

  MemoTableOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<Key, Stored, KeyHash> entries_;
  std::list<Key> lru_;  // front = most recently used
  std::map<std::pair<uint64_t, SnapshotId>, Key> probe_;
  uint64_t bytes_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace rql::retro

#endif  // RQL_RQL_MEMO_TABLE_H_
