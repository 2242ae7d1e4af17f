#ifndef RQL_STORAGE_BUFFER_POOL_H_
#define RQL_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/cleanup.h"
#include "common/status.h"
#include "storage/page.h"

namespace rql::storage {

/// Counters exposed by the buffer pool. The Retro layer uses these to
/// attribute snapshot-query cost: a miss on a Pagelog-backed key corresponds
/// to one page fetched from the snapshot archive (Section 4 of the paper).
struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Get calls that neither hit nor loaded: another thread was already
  /// loading the same key, so this call waited for that load instead of
  /// issuing a duplicate one (single-flight coalescing).
  int64_t coalesced_loads = 0;

  void Reset() { *this = BufferPoolStats{}; }

  void Add(const BufferPoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    coalesced_loads += o.coalesced_loads;
  }
};

/// A ref-counted pin on a cached page. The page stays readable for the
/// lifetime of the pin even if the frame is evicted, overwritten or the
/// pool is cleared — eviction merely drops the pool's own reference.
/// Copyable and movable; an empty pin converts to false.
class PinnedPage {
 public:
  PinnedPage() = default;

  const Page* get() const { return page_.get(); }
  const Page& operator*() const { return *page_; }
  const Page* operator->() const { return page_.get(); }
  explicit operator bool() const { return page_ != nullptr; }

 private:
  friend class BufferPool;
  explicit PinnedPage(std::shared_ptr<const Page> page)
      : page_(std::move(page)) {}

  std::shared_ptr<const Page> page_;
};

/// A fixed-capacity, thread-safe LRU cache of pages keyed by an opaque
/// 64-bit key.
///
/// Keys are assigned by the caller; the Retro snapshot cache keys pages by
/// their Pagelog offset, so a pre-state page shared by several snapshots
/// occupies a single frame and later snapshots hit in cache — the page
/// sharing effect the paper's Section 5.1 measures.
///
/// The pool is sharded: each shard owns its own mutex, LRU list and share
/// of the capacity, so concurrent readers on different keys do not contend.
/// LRU order is therefore approximate across the whole pool but exact
/// within a shard (pass `shards = 1` for exact global LRU). Loads are
/// single-flight: when several threads miss on the same key at once, one
/// runs the loader (outside any shard lock) and the rest wait for its
/// result, so a page shared by many concurrent snapshot readers is still
/// fetched from the archive exactly once.
class BufferPool {
 public:
  using Loader = std::function<Status(uint64_t key, Page* page)>;

  /// Per-call outcome of Get, for callers that attribute cost.
  struct GetOutcome {
    bool loaded = false;     // this call ran the loader (a true miss)
    bool coalesced = false;  // waited on another thread's in-flight load
    int64_t wait_us = 0;     // wall time blocked on the coalesced load
  };

  /// Enough shards that 8 concurrent workers rarely collide on a shard
  /// mutex, while keeping per-shard LRU lists long enough to stay useful.
  static constexpr int kDefaultShards = 16;

  /// `capacity_pages` of zero means unbounded (cache never evicts). Each
  /// shard gets a quota of ceil(capacity / shards), so the pool-wide bound
  /// is approximate: exact when the shard count divides the capacity (or
  /// with one shard), otherwise exceedable by up to shards - 1 pages.
  explicit BufferPool(uint64_t capacity_pages, int shards = kDefaultShards);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pin on the page for `key`, loading it with `loader` on a
  /// miss. The loader runs outside any pool lock; concurrent callers
  /// missing on the same key coalesce onto one load. A failed load leaves
  /// no cache entry and propagates its status to every coalesced waiter.
  Result<PinnedPage> Get(uint64_t key, const Loader& loader,
                         GetOutcome* outcome = nullptr);

  /// Returns a pin on the cached page, or an empty pin, without invoking
  /// any loader (and without waiting on in-flight loads).
  PinnedPage Lookup(uint64_t key);

  /// Inserts (or overwrites) `page` under `key`. Pins handed out for a
  /// previous value keep reading that value.
  void Put(uint64_t key, const Page& page);

  /// Drops `key` if cached.
  void Erase(uint64_t key);

  /// Drops everything. Used by benchmarks to start an RQL query with a cold
  /// snapshot cache, matching the paper's setup. Outstanding pins survive;
  /// loads in flight will still publish their entry when they complete.
  void Clear();

  uint64_t size() const;
  uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  /// Re-divides the new capacity across shards; a shrink takes effect as
  /// shards admit their next page.
  void set_capacity(uint64_t capacity_pages);

  int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Registers observability gauges reading this pool's live counters on
  /// `registry` under `prefix`: `<prefix>.hits`, `.misses`, `.evictions`,
  /// `.coalesced_loads`, `.size_pages`, `.capacity_pages`. `Registry` is
  /// any type with `SetGauge(name, fn)` and `RemoveGaugesWithPrefix(p)`
  /// (retro::MetricsRegistry; templated so the storage layer stays
  /// independent of it). The gauges read the pool directly and cannot
  /// drift from stats(), but they capture `this`: the returned handle
  /// removes them on destruction and MUST NOT outlive the pool or the
  /// registry.
  template <typename Registry>
  [[nodiscard]] ScopedCleanup RegisterMetrics(Registry* registry,
                                              const std::string& prefix) const {
    const BufferPool* pool = this;
    registry->SetGauge(prefix + ".hits",
                       [pool] { return pool->stats().hits; });
    registry->SetGauge(prefix + ".misses",
                       [pool] { return pool->stats().misses; });
    registry->SetGauge(prefix + ".evictions",
                       [pool] { return pool->stats().evictions; });
    registry->SetGauge(prefix + ".coalesced_loads",
                       [pool] { return pool->stats().coalesced_loads; });
    registry->SetGauge(prefix + ".size_pages", [pool] {
      return static_cast<int64_t>(pool->size());
    });
    registry->SetGauge(prefix + ".capacity_pages", [pool] {
      return static_cast<int64_t>(pool->capacity());
    });
    return ScopedCleanup(
        [registry, prefix] { registry->RemoveGaugesWithPrefix(prefix + "."); });
  }

  /// Aggregated over all shards; a snapshot, not a live reference.
  BufferPoolStats stats() const;
  void ResetStats();

 private:
  struct Entry {
    uint64_t key;
    std::shared_ptr<const Page> page;
  };
  using LruList = std::list<Entry>;

  /// One load in progress; waiters block on `cv` until `done`.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const Page> page;
  };

  struct Shard {
    mutable std::mutex mu;
    uint64_t quota = 0;     // this shard's slice of the pool capacity
    bool bounded = false;   // false while pool capacity is 0 (unbounded)
    LruList lru;            // front = most recently used
    std::unordered_map<uint64_t, LruList::iterator> entries;
    std::unordered_map<uint64_t, std::shared_ptr<InFlight>> inflight;
    BufferPoolStats stats;
  };

  Shard& ShardFor(uint64_t key);
  /// Requires `shard.mu`.
  void InsertLocked(Shard& shard, uint64_t key,
                    std::shared_ptr<const Page> page);
  /// Requires `shard.mu`.
  void EvictIfNeededLocked(Shard& shard);

  std::atomic<uint64_t> capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rql::storage

#endif  // RQL_STORAGE_BUFFER_POOL_H_
