#include "storage/buffer_pool.h"

#include <algorithm>

#include "common/clock.h"

namespace rql::storage {

namespace {

/// splitmix64 finalizer: snapshot-cache keys are Pagelog byte offsets, so
/// low bits cluster on record-size multiples; mixing spreads them across
/// shards.
uint64_t MixKey(uint64_t key) {
  key += 0x9e3779b97f4a7c15ull;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
  return key ^ (key >> 31);
}

}  // namespace

BufferPool::BufferPool(uint64_t capacity_pages, int shards)
    : capacity_(capacity_pages) {
  shards_.reserve(static_cast<size_t>(std::max(1, shards)));
  for (int i = 0; i < std::max(1, shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  set_capacity(capacity_pages);
}

BufferPool::Shard& BufferPool::ShardFor(uint64_t key) {
  return *shards_[MixKey(key) % shards_.size()];
}

void BufferPool::set_capacity(uint64_t capacity_pages) {
  capacity_.store(capacity_pages, std::memory_order_relaxed);
  const uint64_t n = shards_.size();
  // Round the per-shard quota up (LevelDB's sharded-cache convention): a
  // round-down would give most shards a quota of zero whenever the
  // capacity is below the shard count, evicting every page at admission.
  // The cost is that the bound is approximate — the pool can hold up to
  // n * ceil(cap / n) pages; it is exact when n divides cap (or n == 1).
  const uint64_t quota = (capacity_pages + n - 1) / n;
  for (uint64_t i = 0; i < n; ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.bounded = capacity_pages != 0;
    shard.quota = quota;
  }
}

Result<PinnedPage> BufferPool::Get(uint64_t key, const Loader& loader,
                                   GetOutcome* outcome) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<InFlight> fl;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      ++shard.stats.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return PinnedPage(it->second->page);
    }
    auto in = shard.inflight.find(key);
    if (in != shard.inflight.end()) {
      fl = in->second;
      ++shard.stats.coalesced_loads;
    } else {
      fl = std::make_shared<InFlight>();
      shard.inflight.emplace(key, fl);
      ++shard.stats.misses;
      owner = true;
    }
  }

  if (!owner) {
    if (outcome != nullptr) outcome->coalesced = true;
    int64_t wait_start = NowMicros();
    std::unique_lock<std::mutex> wait_lock(fl->mu);
    fl->cv.wait(wait_lock, [&] { return fl->done; });
    if (outcome != nullptr) outcome->wait_us = NowMicros() - wait_start;
    if (!fl->status.ok()) return fl->status;
    return PinnedPage(fl->page);
  }

  // Owner of the in-flight load: run the loader outside any lock so other
  // shards (and other keys on this shard) stay serviceable meanwhile.
  auto page = std::make_shared<Page>();
  Status s = loader(key, page.get());
  std::shared_ptr<const Page> loaded =
      s.ok() ? std::shared_ptr<const Page>(std::move(page)) : nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(key);
    // A failed load leaves no entry; waiters receive the error and the
    // caller's retry policy decides whether to re-issue the read.
    if (s.ok()) InsertLocked(shard, key, loaded);
  }
  {
    std::lock_guard<std::mutex> publish(fl->mu);
    fl->status = s;
    fl->page = loaded;
    fl->done = true;
  }
  fl->cv.notify_all();
  RQL_RETURN_IF_ERROR(s);
  if (outcome != nullptr) outcome->loaded = true;
  return PinnedPage(std::move(loaded));
}

PinnedPage BufferPool::Lookup(uint64_t key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return PinnedPage();
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return PinnedPage(it->second->page);
}

void BufferPool::Put(uint64_t key, const Page& page) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  InsertLocked(shard, key, std::make_shared<const Page>(page));
}

void BufferPool::InsertLocked(Shard& shard, uint64_t key,
                              std::shared_ptr<const Page> page) {
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Overwrite by replacing the reference: pins on the old page keep it.
    it->second->page = std::move(page);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(page)});
  shard.entries[key] = shard.lru.begin();
  EvictIfNeededLocked(shard);
}

void BufferPool::EvictIfNeededLocked(Shard& shard) {
  if (!shard.bounded) return;
  while (shard.entries.size() > shard.quota) {
    const Entry& victim = shard.lru.back();
    shard.entries.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

void BufferPool::Erase(uint64_t key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  shard.lru.erase(it->second);
  shard.entries.erase(it);
}

void BufferPool::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->entries.clear();
  }
}

uint64_t BufferPool::size() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.Add(shard->stats);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stats.Reset();
  }
}

}  // namespace rql::storage
