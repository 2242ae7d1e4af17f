#include "rql/memo_table.h"

#include <algorithm>
#include <utility>

#include "sql/fingerprint.h"  // sql::Fnv1a64

namespace rql::retro {

namespace {

// Log record layout: [magic u32][type u32][payload_len u64][crc u64]
// [payload]. The crc is FNV-1a over the payload; a mismatch (or a short
// header/payload at the tail) marks the end of the intact prefix.
constexpr uint32_t kMemoMagic = 0x4D454D52;  // "RMEM"
// Types 1 and 2 were entries and aliases whose read-set tokens were
// Pagelog offsets. Tokens are now start snapshots (PageToken), which an
// old offset can equal, so Open skips those records like any unknown type.
constexpr uint32_t kInvalidateRecord = 3;
constexpr uint32_t kEntryRecord = 4;
constexpr uint32_t kAliasRecord = 5;
constexpr uint64_t kHeaderBytes = 24;
// Defense against a corrupt length field pointing past any plausible
// record: no single memo entry approaches this.
constexpr uint64_t kMaxPayloadBytes = 1ull << 31;

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

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool GetU32(std::string_view data, size_t* pos, uint32_t* v) {
  if (*pos + 4 > data.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(
              static_cast<unsigned char>(data[*pos + static_cast<size_t>(i)]))
          << (8 * i);
  }
  *pos += 4;
  return true;
}

bool GetU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(
              static_cast<unsigned char>(data[*pos + static_cast<size_t>(i)]))
          << (8 * i);
  }
  *pos += 8;
  return true;
}

bool GetString(std::string_view data, size_t* pos, std::string* s) {
  uint32_t len = 0;
  if (!GetU32(data, pos, &len)) return false;
  if (*pos + len > data.size()) return false;
  s->assign(data.substr(*pos, len));
  *pos += len;
  return true;
}

std::string EncodeEntryPayload(const MemoEntry& entry) {
  std::string out;
  PutU64(&out, entry.fingerprint);
  PutU32(&out, entry.snapshot);
  out.push_back(entry.per_snapshot ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(entry.read_set.size()));
  for (const PageToken& pv : entry.read_set) {
    PutU32(&out, pv.page);
    PutU64(&out, pv.version);
  }
  PutU32(&out, static_cast<uint32_t>(entry.columns.size()));
  for (const std::string& col : entry.columns) PutString(&out, col);
  PutU64(&out, static_cast<uint64_t>(entry.rows.size()));
  for (const std::string& row : entry.rows) PutString(&out, row);
  return out;
}

bool DecodeEntryPayload(std::string_view payload, MemoEntry* entry) {
  size_t pos = 0;
  uint32_t snapshot = 0, n_pages = 0, n_cols = 0;
  uint64_t n_rows = 0;
  if (!GetU64(payload, &pos, &entry->fingerprint)) return false;
  if (!GetU32(payload, &pos, &snapshot)) return false;
  entry->snapshot = snapshot;
  if (pos >= payload.size() || static_cast<uint8_t>(payload[pos]) > 1) {
    return false;
  }
  entry->per_snapshot = payload[pos++] == 1;
  if (!GetU32(payload, &pos, &n_pages)) return false;
  entry->read_set.resize(n_pages);
  for (uint32_t i = 0; i < n_pages; ++i) {
    if (!GetU32(payload, &pos, &entry->read_set[i].page)) return false;
    if (!GetU64(payload, &pos, &entry->read_set[i].version)) return false;
  }
  if (!GetU32(payload, &pos, &n_cols)) return false;
  entry->columns.resize(n_cols);
  for (uint32_t i = 0; i < n_cols; ++i) {
    if (!GetString(payload, &pos, &entry->columns[i])) return false;
  }
  if (!GetU64(payload, &pos, &n_rows)) return false;
  entry->rows.resize(n_rows);
  for (uint64_t i = 0; i < n_rows; ++i) {
    if (!GetString(payload, &pos, &entry->rows[i])) return false;
  }
  return pos == payload.size();
}

/// One log record: the header, then the payload.
std::string FrameRecord(uint32_t type, const std::string& payload) {
  std::string rec;
  rec.reserve(kHeaderBytes + payload.size());
  PutU32(&rec, kMemoMagic);
  PutU32(&rec, type);
  PutU64(&rec, payload.size());
  PutU64(&rec, sql::Fnv1a64(payload));
  rec += payload;
  return rec;
}

std::string EncodeAliasPayload(uint64_t fingerprint, uint64_t digest,
                               SnapshotId snapshot) {
  std::string out;
  PutU64(&out, fingerprint);
  PutU64(&out, digest);
  PutU32(&out, snapshot);
  return out;
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

Result<std::unique_ptr<MemoTable>> MemoTable::Open(storage::Env* env,
                                                   const std::string& name,
                                                   MemoTableOptions options) {
  std::unique_ptr<MemoTable> table(new MemoTable(env, name, options));
  RQL_ASSIGN_OR_RETURN(table->file_, env->OpenFile(name + ".memo"));
  RQL_RETURN_IF_ERROR(table->Recover());
  return table;
}

std::unique_ptr<MemoTable> MemoTable::InMemory(MemoTableOptions options) {
  return std::unique_ptr<MemoTable>(new MemoTable(nullptr, "", options));
}

Status MemoTable::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t size = file_->Size();
  uint64_t offset = 0;
  std::string header(kHeaderBytes, '\0');
  std::string payload;
  while (offset + kHeaderBytes <= size) {
    RQL_RETURN_IF_ERROR(file_->Read(offset, kHeaderBytes, header.data()));
    size_t pos = 0;
    uint32_t magic = 0, type = 0;
    uint64_t payload_len = 0, crc = 0;
    GetU32(header, &pos, &magic);
    GetU32(header, &pos, &type);
    GetU64(header, &pos, &payload_len);
    GetU64(header, &pos, &crc);
    if (magic != kMemoMagic || payload_len > kMaxPayloadBytes ||
        offset + kHeaderBytes + payload_len > size) {
      break;  // torn or corrupt: the intact prefix ends here
    }
    payload.resize(payload_len);
    RQL_RETURN_IF_ERROR(
        file_->Read(offset + kHeaderBytes, payload_len, payload.data()));
    if (sql::Fnv1a64(payload) != crc) break;
    ApplyRecord(type, payload);
    offset += kHeaderBytes + payload_len;
  }
  if (offset < size) {
    // Tail-truncate the torn/corrupt suffix so the next append starts a
    // clean record boundary.
    truncated_tail_bytes_ = size - offset;
    RQL_RETURN_IF_ERROR(file_->Truncate(offset));
  }
  log_bytes_ = offset;
  if (log_bytes_ > 2 * bytes_ + options_.compact_slack_bytes) {
    // The log has accumulated records for evicted/invalidated/duplicated
    // entries well past the live set; rewrite it. Best-effort: a failed
    // compaction keeps the (valid) old log.
    Status s = CompactLocked();
    if (!s.ok()) {
      auto reopened = env_->OpenFile(name_ + ".memo");
      RQL_RETURN_IF_ERROR(reopened.status());
      file_ = std::move(reopened).value();
      log_bytes_ = file_->Size();
    }
  }
  return Status::OK();
}

Status MemoTable::CompactLocked() {
  const std::string tmp_name = name_ + ".memo.tmp";
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> tmp,
                       env_->OpenFile(tmp_name));
  RQL_RETURN_IF_ERROR(tmp->Truncate(0));
  uint64_t total = 0;
  auto append = [&](uint32_t type, const std::string& payload) -> Status {
    const std::string rec = FrameRecord(type, payload);
    uint64_t at = 0;
    RQL_RETURN_IF_ERROR(tmp->Append(rec.size(), rec.data(), &at));
    total += rec.size();
    return Status::OK();
  };
  // Entries oldest-first so the newest record wins any probe-index overlap
  // on the next Open, mirroring the append order that produced this state.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Stored& stored = entries_.at(*it);
    RQL_RETURN_IF_ERROR(append(kEntryRecord,
                               EncodeEntryPayload(*stored.entry)));
  }
  // Probe-index rows the entry records alone do not reproduce (snapshots
  // aliased to an entry recorded at a different snapshot).
  for (const auto& [fp_snap, key] : probe_) {
    const Stored& stored = entries_.at(key);
    if (stored.entry->snapshot == fp_snap.second) continue;
    RQL_RETURN_IF_ERROR(append(
        kAliasRecord,
        EncodeAliasPayload(fp_snap.first, key.digest, fp_snap.second)));
  }
  RQL_RETURN_IF_ERROR(tmp->Sync());
  RQL_RETURN_IF_ERROR(env_->RenameFile(tmp_name, name_ + ".memo"));
  // Open handles keep addressing the pre-rename content; reopen.
  RQL_ASSIGN_OR_RETURN(file_, env_->OpenFile(name_ + ".memo"));
  log_bytes_ = total;
  return Status::OK();
}

void MemoTable::ApplyRecord(uint32_t type, const std::string& payload) {
  if (type == kEntryRecord) {
    auto entry = std::make_shared<MemoEntry>();
    if (!DecodeEntryPayload(payload, entry.get())) return;
    int64_t evicted = 0;
    const Key key = KeyOf(*entry);
    if (InsertLocked(key, std::move(entry), &evicted)) ++recovered_entries_;
    evictions_ += evicted;
    return;
  }
  if (type == kAliasRecord) {
    size_t pos = 0;
    uint64_t fingerprint = 0, digest = 0;
    uint32_t snapshot = 0;
    if (!GetU64(payload, &pos, &fingerprint)) return;
    if (!GetU64(payload, &pos, &digest)) return;
    if (!GetU32(payload, &pos, &snapshot)) return;
    Key key{fingerprint, digest};
    auto it = entries_.find(key);
    if (it == entries_.end()) return;  // entry evicted earlier in the log
    RegisterSnapshotLocked(key, snapshot);
    TouchLocked(&it->second);
    return;
  }
  if (type == kInvalidateRecord) {
    size_t pos = 0;
    uint32_t keep_from = 0;
    if (!GetU32(payload, &pos, &keep_from)) return;
    for (auto it = probe_.begin(); it != probe_.end();) {
      if (it->first.second < keep_from) {
        UnregisterLocked(it->second, it->first.second);
        it = probe_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

bool MemoTable::InsertLocked(const Key& key,
                             std::shared_ptr<const MemoEntry> entry,
                             int64_t* evicted) {
  *evicted = 0;
  SnapshotId snapshot = entry->snapshot;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // First publish wins: the stored entry (same key = same fingerprint
    // and same archived read-set versions, hence same replay) stays; only
    // the probe index learns the new snapshot.
    RegisterSnapshotLocked(key, snapshot);
    TouchLocked(&it->second);
    return false;
  }
  Stored stored;
  stored.bytes = EntryBytes(*entry);
  stored.entry = std::move(entry);
  lru_.push_front(key);
  stored.lru_it = lru_.begin();
  bytes_ += stored.bytes;
  entries_.emplace(key, std::move(stored));
  RegisterSnapshotLocked(key, snapshot);
  *evicted = EnforceBoundLocked(&key);
  return true;
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

int64_t MemoTable::EnforceBoundLocked(const Key* keep) {
  int64_t evicted = 0;
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    Key victim = lru_.back();
    if (keep != nullptr && victim == *keep) break;  // never the newest
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

Status MemoTable::AppendRecordLocked(uint32_t type,
                                     const std::string& payload,
                                     uint64_t* appended) {
  const std::string rec = FrameRecord(type, payload);
  uint64_t at = 0;
  RQL_RETURN_IF_ERROR(file_->Append(rec.size(), rec.data(), &at));
  RQL_RETURN_IF_ERROR(file_->Sync());
  log_bytes_ = at + rec.size();
  if (appended != nullptr) *appended = rec.size();
  return Status::OK();
}

Result<MemoPublishResult> MemoTable::Publish(
    std::shared_ptr<const MemoEntry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  MemoPublishResult result;
  const Key key = KeyOf(*entry);
  if (file_ == nullptr) {
    result.inserted = InsertLocked(key, std::move(entry), &result.evictions);
    return result;
  }
  const bool is_entry = entries_.count(key) == 0;
  std::string payload =
      is_entry ? EncodeEntryPayload(*entry)
               : EncodeAliasPayload(key.fingerprint, key.digest,
                                    entry->snapshot);
  result.inserted = InsertLocked(key, std::move(entry), &result.evictions);
  RQL_RETURN_IF_ERROR(AppendRecordLocked(
      is_entry ? kEntryRecord : kAliasRecord, payload,
      &result.bytes_appended));
  return result;
}

Status MemoTable::InvalidateBelow(SnapshotId keep_from) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string payload;
  PutU32(&payload, keep_from);
  ApplyRecord(kInvalidateRecord, payload);
  if (file_ == nullptr) return Status::OK();
  return AppendRecordLocked(kInvalidateRecord, payload, nullptr);
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

int64_t MemoTable::recovered_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_entries_;
}

uint64_t MemoTable::truncated_tail_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_tail_bytes_;
}

uint64_t MemoTable::log_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_bytes_;
}

}  // namespace rql::retro
