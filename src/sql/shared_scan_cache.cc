#include "sql/shared_scan_cache.h"

#include <algorithm>

#include "storage/page.h"

namespace rql::sql {

namespace {

/// splitmix64: decorrelates Pagelog offsets (which are dense and
/// low-entropy in their low bits) across shards.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

SharedScanCache::SharedScanCache(Options options) : options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.protected_fraction < 0) options_.protected_fraction = 0;
  if (options_.protected_fraction > 1) options_.protected_fraction = 1;
  uint64_t quota =
      options_.max_bytes == 0
          ? 0
          : (options_.max_bytes + static_cast<uint64_t>(options_.shards) - 1) /
                static_cast<uint64_t>(options_.shards);
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->quota = quota;
    shard->protected_quota = static_cast<uint64_t>(
        static_cast<double>(quota) * options_.protected_fraction);
    shards_.push_back(std::move(shard));
  }
}

SharedScanCache::~SharedScanCache() = default;

SharedScanCache::Shard* SharedScanCache::ShardFor(uint64_t version) {
  return shards_[Mix(version) % shards_.size()].get();
}

uint64_t SharedScanCache::EstimateBytes(const DecodedPage& page) {
  uint64_t b = sizeof(DecodedPage) + storage::kPageSize;
  b += page.slots.capacity() * sizeof(uint16_t);
  b += page.records.capacity() * sizeof(std::string_view);
  b += page.rows.capacity() * sizeof(Row);
  for (const Row& row : page.rows) {
    b += row.capacity() * sizeof(Value);
    for (const Value& v : row) {
      if (v.type() == ValueType::kText) b += v.text().size();
    }
  }
  return b;
}

void SharedScanCache::Touch(Shard* shard, Entry* entry, uint64_t version) {
  if (entry->protected_seg) {
    shard->protected_lru.splice(shard->protected_lru.begin(),
                                shard->protected_lru, entry->lru_it);
    return;
  }
  // Probation re-hit: this version is part of somebody's working set.
  shard->probation.erase(entry->lru_it);
  shard->protected_lru.push_front(version);
  entry->lru_it = shard->protected_lru.begin();
  entry->protected_seg = true;
  shard->protected_bytes += entry->bytes;
  // Demote the protected tail rather than letting the protected segment
  // starve probation (and with it every newly admitted entry).
  while (shard->quota != 0 && shard->protected_bytes > shard->protected_quota &&
         shard->protected_lru.size() > 1) {
    uint64_t victim = shard->protected_lru.back();
    auto it = shard->entries.find(victim);
    shard->protected_lru.pop_back();
    shard->probation.push_front(victim);
    it->second.lru_it = shard->probation.begin();
    it->second.protected_seg = false;
    shard->protected_bytes -= it->second.bytes;
  }
}

void SharedScanCache::RemoveEntry(Shard* shard, uint64_t version,
                                  Entry* entry) {
  if (entry->protected_seg) {
    shard->protected_bytes -= entry->bytes;
    shard->protected_lru.erase(entry->lru_it);
  } else {
    shard->probation.erase(entry->lru_it);
  }
  shard->bytes -= entry->bytes;
  bytes_.fetch_sub(entry->bytes, std::memory_order_relaxed);
  shard->entries.erase(version);
}

void SharedScanCache::EvictIfNeeded(Shard* shard) {
  while (shard->quota != 0 && shard->bytes > shard->quota &&
         !shard->entries.empty()) {
    uint64_t victim;
    if (!shard->probation.empty()) {
      victim = shard->probation.back();
    } else {
      victim = shard->protected_lru.back();
    }
    auto it = shard->entries.find(victim);
    RemoveEntry(shard, victim, &it->second);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const SharedScanCache::DecodedPage> SharedScanCache::Lookup(
    uint64_t version) {
  Shard* shard = ShardFor(version);
  std::lock_guard<std::mutex> lock(shard->mu);
  auto it = shard->entries.find(version);
  if (it == shard->entries.end()) return nullptr;
  Touch(shard, &it->second, version);
  shared_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.page;
}

SharedScanCache::AcquireResult SharedScanCache::Acquire(uint64_t version) {
  Shard* shard = ShardFor(version);
  std::shared_ptr<InFlight> fl;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->entries.find(version);
    if (it != shard->entries.end()) {
      Touch(shard, &it->second, version);
      shared_hits_.fetch_add(1, std::memory_order_relaxed);
      return {it->second.page, false, false};
    }
    auto in = shard->inflight.find(version);
    if (in == shard->inflight.end()) {
      // Cold: this caller owns the decode.
      auto claim = std::make_shared<InFlight>();
      shard->inflight.emplace(version, std::move(claim));
      misses_.fetch_add(1, std::memory_order_relaxed);
      return {nullptr, true, false};
    }
    fl = in->second;
  }
  {
    std::unique_lock<std::mutex> lock(fl->mu);
    if (fl->stale && !fl->done) {
      // The claim predates a truncation clear; its result will not be
      // published. Do not wait on it and do not re-claim the (suspect)
      // version: read uncached.
      misses_.fetch_add(1, std::memory_order_relaxed);
      return {nullptr, false, false};
    }
    fl->cv.wait(lock, [&] { return fl->done; });
    if (fl->page != nullptr) {
      shared_hits_.fetch_add(1, std::memory_order_relaxed);
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      return {fl->page, false, true};
    }
  }
  // The decode was abandoned (or invalidated): uncached fallback.
  misses_.fetch_add(1, std::memory_order_relaxed);
  return {nullptr, false, false};
}

std::shared_ptr<const SharedScanCache::DecodedPage> SharedScanCache::Insert(
    uint64_t version, std::shared_ptr<const DecodedPage> page) {
  Shard* shard = ShardFor(version);
  std::shared_ptr<InFlight> fl;
  bool publish = true;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto in = shard->inflight.find(version);
    if (in != shard->inflight.end()) {
      // Only the claimant completes an in-flight entry, so this is ours.
      fl = in->second;
      shard->inflight.erase(in);
    }
    if (fl != nullptr) {
      std::lock_guard<std::mutex> fl_lock(fl->mu);
      publish = !fl->stale;
    }
    auto it = shard->entries.find(version);
    if (it != shard->entries.end()) {
      // Already published (an Insert made without an Acquire claim raced
      // another publish): first publish wins.
      Touch(shard, &it->second, version);
      page = it->second.page;
      publish = false;
    } else if (publish) {
      Entry entry;
      entry.page = page;
      entry.bytes = EstimateBytes(*page);
      shard->probation.push_front(version);
      entry.lru_it = shard->probation.begin();
      shard->bytes += entry.bytes;
      bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
      shard->entries.emplace(version, std::move(entry));
      inserts_.fetch_add(1, std::memory_order_relaxed);
      EvictIfNeeded(shard);
    }
  }
  if (fl != nullptr) {
    std::lock_guard<std::mutex> fl_lock(fl->mu);
    fl->done = true;
    fl->page = page;
    fl->cv.notify_all();
  }
  return page;
}

void SharedScanCache::AbandonDecode(uint64_t version) {
  Shard* shard = ShardFor(version);
  std::shared_ptr<InFlight> fl;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto in = shard->inflight.find(version);
    if (in == shard->inflight.end()) return;
    fl = in->second;
    shard->inflight.erase(in);
  }
  abandons_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> fl_lock(fl->mu);
  fl->done = true;
  fl->page = nullptr;
  fl->cv.notify_all();
}

void SharedScanCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes_.fetch_sub(shard->bytes, std::memory_order_relaxed);
    shard->entries.clear();
    shard->probation.clear();
    shard->protected_lru.clear();
    shard->bytes = 0;
    shard->protected_bytes = 0;
    // In-flight decodes may be keyed by offsets that are about to be
    // recycled: mark them stale so the claimant serves its waiters but
    // publishes nothing, and late arrivals read uncached.
    for (auto& [version, fl] : shard->inflight) {
      std::lock_guard<std::mutex> fl_lock(fl->mu);
      fl->stale = true;
    }
  }
}

void SharedScanCache::OnTruncateHistory(uint64_t keep_from) {
  (void)keep_from;  // conservative: every version key is suspect
  Clear();
  truncate_invalidations_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SharedScanCache::size() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->entries.size();
  }
  return n;
}

SharedScanCache::Stats SharedScanCache::GetStats() const {
  Stats s;
  s.shared_hits = shared_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.coalesced_decodes = coalesced_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.abandoned_decodes = abandons_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.truncate_invalidations =
      truncate_invalidations_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.entries = size();
  return s;
}

}  // namespace rql::sql
