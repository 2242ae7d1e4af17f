#ifndef RQL_SQL_SHARED_SCAN_CACHE_H_
#define RQL_SQL_SHARED_SCAN_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cleanup.h"
#include "sql/value.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace rql::sql {

/// Per-execution scan-cache counters, accumulated by HeapTable iterators
/// into the executor's ExecStats. Unlike the cache-wide Stats, these are
/// exact per execution even when several runs or parallel workers share
/// one cache instance, so the RQL engine attributes hits and misses to the
/// iteration that actually performed them.
struct ScanCacheCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  /// Hits served by blocking on another thread's in-flight decode of the
  /// same version (single-flight coalescing).
  int64_t coalesced = 0;

  void Reset() { *this = ScanCacheCounters{}; }
  void Add(const ScanCacheCounters& o) {
    hits += o.hits;
    misses += o.misses;
    coalesced += o.coalesced;
  }
};

/// The decoded-page cache of the scan path, shared by concurrent RQL runs.
///
/// The key is the page *version*: the Pagelog offset the snapshot page
/// table resolves a (page, snapshot) pair to. Within one Pagelog
/// generation an offset names immutable archived bytes, globally unique
/// across every snapshot and every run over the store — which is what
/// makes sharing sound: two snapshots (or two runs) that resolve the same
/// version are by construction reading the same page pre-state, so one
/// fetch + slot-walk + tuple-decode serves both. (`TruncateHistory`
/// rewrites the Pagelog and rebases offsets, starting a new generation;
/// see OnTruncateHistory below.)
///
/// Entries hold a PinnedPage, so the raw record bytes (string_views into
/// the pinned frame) stay valid even if the underlying BufferPool frame is
/// evicted; the pool merely drops its own reference.
///
/// Scoping is the owner's choice. One instance per store serves every run
/// over it (the daemon's configuration); an unbounded instance
/// (`max_bytes = 0`) created per run, or Clear()ed between runs, serves
/// only that run's snapshots. Either way results are byte-identical to
/// scanning with no cache. The store-scoped use needs three things:
///
///  * A byte budget with segmented-LRU eviction. New entries land in a
///    probationary segment and are promoted to a protected segment on
///    re-hit, so a single cold sweep over a long history (all
///    first-touch entries) can only thrash probation and cannot evict
///    other runs' re-used working sets. Eviction drops the cache's own
///    reference; runs still holding the shared_ptr keep the entry (and
///    its pin) alive until their batches finish.
///  * Per-version single-flight decoding. N runs racing on a cold
///    version claim it once: the first caller decodes, the rest block on
///    the in-flight entry and are served the published result, mirroring
///    storage::BufferPool's coalesced loads one layer up.
///  * Conservative invalidation from TruncateHistory: truncation rebases
///    Pagelog offsets, so every cached version key is suspect and the
///    cache is cleared outright. (retro::MemoTable::InvalidateBelow keeps
///    its survivors: its tokens are start snapshots, which do not move.)
///    Stale hits are impossible afterwards; the cost is re-decoding on
///    the next run.
///
/// Sharded like BufferPool so concurrent runs on different versions do
/// not contend; LRU order is approximate across the cache, exact within
/// a shard.
class SharedScanCache {
 public:
  /// One decoded page version. Immutable once published.
  struct DecodedPage {
    storage::PinnedPage pin;  // keeps `records` bytes alive
    storage::PageId next = storage::kInvalidPageId;  // chain successor
    std::vector<uint16_t> slots;            // slot number per live record
    std::vector<std::string_view> records;  // raw bytes, into the pin
    std::vector<Row> rows;                  // decoded form of `records`
  };

  /// Result of Acquire(): either a published entry (`page` non-null), a
  /// decode claim (`claimed` — the caller MUST follow up with Insert or
  /// AbandonDecode for the same version), or neither (an in-flight decode
  /// the caller waited on was abandoned; fall through to a plain,
  /// uncached read).
  struct AcquireResult {
    std::shared_ptr<const DecodedPage> page;
    bool claimed = false;
    bool coalesced = false;  // hit was served by waiting on a decode
  };

  struct Options {
    /// Budget across all shards; 0 = unbounded (never evicts).
    uint64_t max_bytes = 256ull << 20;
    int shards = 16;
    /// Share of each shard's budget the protected segment may occupy
    /// before its tail is demoted back to probation.
    double protected_fraction = 0.8;
  };

  struct Stats {
    int64_t shared_hits = 0;        // Acquire/Lookup served from the table
    int64_t misses = 0;             // Acquire that claimed a decode
    int64_t coalesced_decodes = 0;  // hits served by waiting on a decode
    int64_t inserts = 0;            // entries published (== decodes done)
    int64_t abandoned_decodes = 0;  // claims released without publishing
    int64_t evictions = 0;
    int64_t truncate_invalidations = 0;
    uint64_t bytes = 0;
    uint64_t entries = 0;
  };

  SharedScanCache() : SharedScanCache(Options()) {}
  explicit SharedScanCache(Options options);
  ~SharedScanCache();
  SharedScanCache(const SharedScanCache&) = delete;
  SharedScanCache& operator=(const SharedScanCache&) = delete;

  /// The cached entry for `version`, or nullptr (never waits on, and
  /// never claims, an in-flight decode).
  std::shared_ptr<const DecodedPage> Lookup(uint64_t version);

  /// Single-flight acquire: a table hit returns the entry; a cold version
  /// claims the decode for this caller; a version another thread is
  /// already decoding blocks until that decode publishes (coalesced hit)
  /// or abandons (fall through to an uncached read).
  AcquireResult Acquire(uint64_t version);

  /// Publishes `page` under `version` and releases the claim on it, waking
  /// every waiter with the entry; returns the entry that ends up cached
  /// (the already-present one if another thread published first). Evicts
  /// least-recently-used probationary entries if the shard runs over
  /// budget.
  std::shared_ptr<const DecodedPage> Insert(
      uint64_t version, std::shared_ptr<const DecodedPage> page);

  /// Releases the claim on `version` without publishing (the fetch or
  /// decode failed); waiters are woken empty-handed and fall back to
  /// plain uncached reads.
  void AbandonDecode(uint64_t version);

  /// Drops every entry (and, once no reader holds them, their pins).
  void Clear();
  uint64_t size() const;

  /// TruncateHistory invalidation hook (conservative): offsets at or
  /// above the rewrite are rebased and freed ranges may be recycled, so
  /// every version key is suspect — drop everything. `keep_from` is
  /// accepted for contract symmetry; no finer-grained retention is
  /// attempted. In-flight decodes complete for their waiters but are not
  /// published.
  void OnTruncateHistory(uint64_t keep_from);

  Stats GetStats() const;
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Registers point-in-time gauges `<prefix>.bytes`, `.entries`,
  /// `.evictions`, `.shared_hits`, `.misses`, `.coalesced_decodes`,
  /// `.capacity_bytes`. The returned handle deregisters them; it must not
  /// outlive this cache (`Registry` is templated so the gauge set stays
  /// usable with any registry exposing SetGauge/RemoveGaugesWithPrefix).
  template <typename Registry>
  [[nodiscard]] ScopedCleanup RegisterMetrics(Registry* registry,
                                              const std::string& prefix) {
    const SharedScanCache* cache = this;
    registry->SetGauge(prefix + ".bytes", [cache] {
      return static_cast<int64_t>(cache->bytes());
    });
    registry->SetGauge(prefix + ".entries", [cache] {
      return static_cast<int64_t>(cache->size());
    });
    registry->SetGauge(prefix + ".evictions",
                       [cache] { return cache->evictions(); });
    registry->SetGauge(prefix + ".shared_hits", [cache] {
      return cache->shared_hits_.load(std::memory_order_relaxed);
    });
    registry->SetGauge(prefix + ".misses", [cache] {
      return cache->misses_.load(std::memory_order_relaxed);
    });
    registry->SetGauge(prefix + ".coalesced_decodes", [cache] {
      return cache->coalesced_.load(std::memory_order_relaxed);
    });
    registry->SetGauge(prefix + ".capacity_bytes", [cache] {
      return static_cast<int64_t>(cache->options_.max_bytes);
    });
    return ScopedCleanup(
        [registry, prefix] { registry->RemoveGaugesWithPrefix(prefix + "."); });
  }

  /// Approximate resident size of one decoded page: the pinned frame plus
  /// the decoded slots/records/rows. The budget accounting charge.
  static uint64_t EstimateBytes(const DecodedPage& page);

 private:
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    /// Set by Clear/OnTruncateHistory while the decode is in flight: the
    /// result may be keyed by a rebased offset, so it must not be
    /// published. Late arrivals skip stale claims entirely.
    bool stale = false;
    std::shared_ptr<const DecodedPage> page;  // null when abandoned
  };

  struct Entry {
    std::shared_ptr<const DecodedPage> page;
    uint64_t bytes = 0;
    bool protected_seg = false;
    std::list<uint64_t>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> entries;
    /// Both lists are MRU-at-front; Entry::lru_it points into the list
    /// named by Entry::protected_seg.
    std::list<uint64_t> probation;
    std::list<uint64_t> protected_lru;
    uint64_t bytes = 0;
    uint64_t protected_bytes = 0;
    uint64_t quota = 0;            // 0 = unbounded
    uint64_t protected_quota = 0;
    std::unordered_map<uint64_t, std::shared_ptr<InFlight>> inflight;
  };

  Shard* ShardFor(uint64_t version);
  /// Moves a hit entry to the MRU end of the protected segment (promoting
  /// probationary entries) and rebalances the segments. Caller holds
  /// shard->mu.
  void Touch(Shard* shard, Entry* entry, uint64_t version);
  /// Evicts from probation tail first, then protected, until the shard is
  /// within quota. Caller holds shard->mu.
  void EvictIfNeeded(Shard* shard);
  void RemoveEntry(Shard* shard, uint64_t version, Entry* entry);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> bytes_{0};
  std::atomic<int64_t> shared_hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> abandons_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> truncate_invalidations_{0};
};

}  // namespace rql::sql

#endif  // RQL_SQL_SHARED_SCAN_CACHE_H_
