#include "rql/memo_table.h"

#include <algorithm>
#include <utility>

#include "sql/fingerprint.h"  // sql::Fnv1a64

namespace rql::retro {

namespace {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// FNV-1a over the read set's [page u32][version u64] records, in order;
/// `read_set` must be sorted by page id.
uint64_t DigestSorted(const std::vector<PageToken>& read_set) {
  std::string bytes;
  bytes.reserve(read_set.size() * 12);
  for (const PageToken& pv : read_set) {
    PutU32(&bytes, pv.page);
    PutU64(&bytes, pv.version);
  }
  return sql::Fnv1a64(bytes);
}

}  // namespace

uint64_t MemoTable::ReadSetDigest(std::vector<PageToken> read_set) {
  std::sort(read_set.begin(), read_set.end(),
            [](const PageToken& a, const PageToken& b) {
              return a.page != b.page ? a.page < b.page
                                      : a.version < b.version;
            });
  return DigestSorted(read_set);
}

MemoTable::Key MemoTable::KeyOf(const MemoEntry& entry) {
  // MemoEntry::read_set is sorted by page, so it hashes in place: equal
  // to ReadSetDigest without its copy and sort.
  Key key{entry.fingerprint, DigestSorted(entry.read_set)};
  if (entry.per_snapshot) {
    // Identical bytes read, yet rows that name the snapshot: the key names
    // it too, so no other snapshot aliases the entry.
    std::string bytes;
    PutU64(&bytes, key.digest);
    PutU32(&bytes, entry.snapshot);
    key.digest = sql::Fnv1a64(bytes);
  }
  return key;
}

uint64_t MemoTable::EntryBytes(const MemoEntry& entry) {
  uint64_t bytes = 8 + 4 + 1 + 4 + 12ull * entry.read_set.size() + 4 + 8;
  for (const std::string& col : entry.columns) bytes += 4 + col.size();
  for (const std::string& row : entry.rows) bytes += 4 + row.size();
  return bytes;
}

void MemoTable::TouchLocked(Stored* stored) {
  lru_.splice(lru_.begin(), lru_, stored->lru_it);
}

void MemoTable::RegisterSnapshotLocked(const Key& key, SnapshotId snapshot) {
  auto probe_key = std::make_pair(key.fingerprint, snapshot);
  auto it = probe_.find(probe_key);
  if (it != probe_.end()) {
    if (it->second == key) return;
    // The snapshot re-published under a different read-set digest (data
    // changed): drop the old registration.
    const Key old_key = it->second;
    it->second = key;
    UnregisterLocked(old_key, snapshot);
  } else {
    probe_.emplace(probe_key, key);
  }
  auto& snaps = entries_.at(key).snapshots;
  if (std::find(snaps.begin(), snaps.end(), snapshot) == snaps.end()) {
    snaps.push_back(snapshot);
  }
}

void MemoTable::UnregisterLocked(Key key, SnapshotId snapshot) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  auto& snaps = it->second.snapshots;
  snaps.erase(std::remove(snaps.begin(), snaps.end(), snapshot), snaps.end());
  // Nothing probes to the entry any more, so it can never be served.
  if (snaps.empty()) EraseLocked(key);
}

int64_t MemoTable::EnforceBoundLocked(const Key& keep) {
  int64_t evicted = 0;
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    Key victim = lru_.back();
    if (victim == keep) break;  // never the newest
    EraseLocked(victim);
    ++evicted;
  }
  evictions_ += evicted;
  return evicted;
}

void MemoTable::EraseLocked(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  for (SnapshotId snap : it->second.snapshots) {
    auto probe_it = probe_.find(std::make_pair(key.fingerprint, snap));
    if (probe_it != probe_.end() && probe_it->second == key) {
      probe_.erase(probe_it);
    }
  }
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

std::shared_ptr<const MemoEntry> MemoTable::Probe(uint64_t fingerprint,
                                                  SnapshotId snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = probe_.find(std::make_pair(fingerprint, snapshot));
  if (it == probe_.end()) return nullptr;
  auto stored = entries_.find(it->second);
  if (stored == entries_.end()) return nullptr;
  TouchLocked(&stored->second);
  return stored->second.entry;
}

MemoPublishResult MemoTable::Publish(
    std::shared_ptr<const MemoEntry> entry) {
  const Key key = KeyOf(*entry);
  return PublishAs(key, std::move(entry));
}

MemoPublishResult MemoTable::PublishAs(
    const Key& key, std::shared_ptr<const MemoEntry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  MemoPublishResult result;
  const SnapshotId snapshot = entry->snapshot;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // First publish wins: the stored entry (same fingerprint and same
    // read-set tokens, hence same replay) stays; only the probe index
    // learns the new snapshot. An equal key is only a 64-bit digest, and
    // a probe replays without revalidating, so the read sets themselves
    // must match.
    const MemoEntry& stored = *it->second.entry;
    if (stored.read_set != entry->read_set ||
        stored.per_snapshot != entry->per_snapshot ||
        (stored.per_snapshot && stored.snapshot != snapshot)) {
      return result;
    }
    RegisterSnapshotLocked(key, snapshot);
    TouchLocked(&it->second);
    return result;
  }
  Stored stored;
  stored.bytes = EntryBytes(*entry);
  stored.entry = std::move(entry);
  lru_.push_front(key);
  stored.lru_it = lru_.begin();
  bytes_ += stored.bytes;
  entries_.emplace(key, std::move(stored));
  RegisterSnapshotLocked(key, snapshot);
  result.inserted = true;
  result.evictions = EnforceBoundLocked(key);
  return result;
}

void MemoTable::InvalidateBelow(SnapshotId keep_from) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = probe_.begin(); it != probe_.end();) {
    if (it->first.second < keep_from) {
      UnregisterLocked(it->second, it->first.second);
      it = probe_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t MemoTable::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t MemoTable::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t MemoTable::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace rql::retro
