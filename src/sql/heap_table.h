#ifndef RQL_SQL_HEAP_TABLE_H_
#define RQL_SQL_HEAP_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/row_batch.h"
#include "sql/shared_scan_cache.h"
#include "storage/page_store.h"

namespace rql::sql {

/// Record identifier: page id in the high 32 bits (16 would do, but 32
/// keeps it simple), slot number in the low bits.
using Rid = uint64_t;

inline Rid MakeRid(storage::PageId page, uint16_t slot) {
  return (static_cast<uint64_t>(page) << 16) | slot;
}
inline storage::PageId RidPage(Rid rid) {
  return static_cast<storage::PageId>(rid >> 16);
}
inline uint16_t RidSlot(Rid rid) { return static_cast<uint16_t>(rid & 0xFFFF); }

/// One in-place record rewrite for HeapTable::Overwrite: the record at
/// `rid` becomes `record`.
struct RecordOverwrite {
  Rid rid;
  std::string record;
};

/// A heap file of variable-length records in slotted pages.
///
/// Pages form a doubly-linked chain starting at the root. Inserts fill the
/// tail page (tracked in the root header); deletes mark slots dead, and a
/// page whose records are all dead is unlinked and returned to the store's
/// free list. Under a rotating update workload (TPC-H refresh) the table
/// therefore stays at roughly constant size while every page is eventually
/// rewritten — the "overwrite cycle" behaviour the paper's Section 4
/// analyses.
class HeapTable {
 public:
  /// Allocates an empty table; returns its root page id.
  static Result<storage::PageId> Create(storage::PageWriter* writer);

  /// Opens an existing table for mutation.
  HeapTable(storage::PageWriter* writer, storage::PageId root)
      : writer_(writer), root_(root) {}

  /// Inserts a record; returns its rid. Records must fit in one page
  /// (roughly kPageSize - 32 bytes).
  Result<Rid> Insert(std::string_view record);

  /// Marks the record dead; frees the page when it empties.
  Status Delete(Rid rid);

  /// Replaces the record, possibly moving it; returns the (new) rid.
  Result<Rid> Update(Rid rid, std::string_view record);

  /// Vets one overwrite: the stored record and its replacement.
  using OverwriteCheck =
      std::function<Status(std::string_view stored, std::string_view record)>;

  /// Rewrites records in place, as Update does with a record that does
  /// not grow, reading and writing each touched page once. Overwrites of
  /// one page apply in their given order, so every page ends byte-
  /// identical to the same Update calls made one at a time. `check`, when
  /// given, vets each overwrite before it applies. Fails on a dead slot, a
  /// grown record or a failed check without writing the page that holds
  /// it; pages written before stay written, so callers overwrite inside a
  /// transaction.
  Status Overwrite(const std::vector<RecordOverwrite>& overwrites,
                   const OverwriteCheck& check = nullptr);

  /// Frees every page of the table, including the root.
  Status Drop();

  storage::PageId root() const { return root_; }

  /// Forward scan over any reader (the current state or a snapshot view).
  ///
  /// With a SharedScanCache attached, pages the reader can assign a stable
  /// version to (archived snapshot pages, keyed by Pagelog offset) are
  /// decoded once per cache lifetime: the scan serves records — and
  /// pre-decoded rows, see cached_row() — from the cached entry, and the
  /// chain follows the entry's recorded successor without re-reading the
  /// page. Unversioned pages (current-state, or shared-with-current) fall
  /// back to the plain read-and-walk path, so a scan may mix both modes.
  class Iterator {
   public:
    /// True while positioned on a record. False at end or after error;
    /// check status() to distinguish.
    bool Valid() const { return valid_; }
    Status status() const { return status_; }

    Rid rid() const {
      return MakeRid(page_id_, cached_ ? cached_->slots[slot_]
                                       : static_cast<uint16_t>(slot_));
    }
    std::string_view record() const { return record_; }

    /// The current record's pre-decoded row, when it was served from the
    /// scan cache; nullptr otherwise (caller decodes record() itself).
    const Row* cached_row() const {
      return cached_ ? &cached_->rows[slot_] : nullptr;
    }

    void Next();

   private:
    friend class HeapTable;
    Iterator(storage::PageReader* reader, storage::PageId root,
             SharedScanCache* cache, ScanCacheCounters* counters);

    void LoadPage(storage::PageId id);
    void AdvanceToLiveSlot();

    storage::PageReader* reader_;
    SharedScanCache* cache_ = nullptr;
    ScanCacheCounters* counters_ = nullptr;  // per-execution attribution
    // Cached mode: the current page's decoded entry; slot_ indexes its
    // records. Plain mode (cached_ == nullptr): page_ holds the page and
    // slot_ is the physical slot number.
    std::shared_ptr<const SharedScanCache::DecodedPage> cached_;
    storage::Page page_;
    storage::PageId page_id_ = storage::kInvalidPageId;
    int slot_ = -1;  // current slot, advanced by AdvanceToLiveSlot
    uint16_t slot_count_ = 0;
    std::string_view record_;
    bool valid_ = false;
    Status status_;
  };

  /// Opens a scan of the table rooted at `root` through `reader`,
  /// optionally reusing decoded page versions from `cache`. `counters`,
  /// when given, receives this scan's hit/miss/coalesced counts — the
  /// race-free per-execution attribution (the cache's own counters are
  /// global across every run sharing it).
  static Iterator Scan(storage::PageReader* reader, storage::PageId root,
                       SharedScanCache* cache = nullptr,
                       ScanCacheCounters* counters = nullptr);

  /// Page-at-a-time scan: each position is a RowBatch holding every live
  /// record of one heap page, fully decoded. Pages the reader can version
  /// go through the same cache protocol as Iterator (acquire / decode
  /// once / publish), so hit accounting and read-set recording are
  /// identical to the row scan; unversioned pages are decoded into a
  /// batch-private buffer the RowBatch keeps alive. Pages with no live
  /// records are skipped, so a valid batch is never empty. Unlike the
  /// row scan, an undecodable record fails the whole scan (status()).
  class BatchIterator {
   public:
    bool Valid() const { return valid_; }
    Status status() const { return status_; }

    /// The current page's rows. Only `selection` may be mutated; the
    /// batch stays usable after Next() (it owns its lifetime anchor),
    /// which is what lets consumers hold borrowed values across pages.
    RowBatch& batch() { return batch_; }

    void Next();

   private:
    friend class HeapTable;
    BatchIterator(storage::PageReader* reader, storage::PageId root,
                  SharedScanCache* cache, ScanCacheCounters* counters);

    void LoadBatch(storage::PageId id);

    storage::PageReader* reader_;
    SharedScanCache* cache_ = nullptr;
    ScanCacheCounters* counters_ = nullptr;  // per-execution attribution
    RowBatch batch_;
    storage::PageId next_ = storage::kInvalidPageId;
    bool valid_ = false;
    Status status_;
  };

  /// Opens a batch scan of the table rooted at `root` through `reader`,
  /// optionally reusing decoded page versions from `cache` (with
  /// per-execution attribution into `counters`, as in Scan).
  static BatchIterator ScanBatches(storage::PageReader* reader,
                                   storage::PageId root,
                                   SharedScanCache* cache = nullptr,
                                   ScanCacheCounters* counters = nullptr);

  /// Reads one record by rid through `reader`.
  static Result<std::string> Get(storage::PageReader* reader, Rid rid);

  /// Number of chained pages (for memory-footprint reporting).
  static Result<uint64_t> CountPages(storage::PageReader* reader,
                                     storage::PageId root);

 private:
  Status InsertIntoPage(storage::PageId id, storage::Page* page,
                        std::string_view record, uint16_t* slot);

  storage::PageWriter* writer_;
  storage::PageId root_;
};

}  // namespace rql::sql

#endif  // RQL_SQL_HEAP_TABLE_H_
