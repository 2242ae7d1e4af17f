#include "retro/maplog.h"

#include <algorithm>
#include <unordered_set>

#include "common/clock.h"

namespace rql::retro {

Result<std::unique_ptr<Maplog>> Maplog::Open(storage::Env* env,
                                             const std::string& name) {
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file,
                       env->OpenFile(name));
  uint64_t size = file->Size();
  uint64_t aligned = size - size % sizeof(MaplogEntry);
  if (aligned != size) {
    // A partial trailing entry is an interrupted append: entries are
    // synced before any dependent commit, so nothing references the tail —
    // recovery drops it.
    RQL_RETURN_IF_ERROR(file->Truncate(aligned));
  }
  auto log = std::unique_ptr<Maplog>(new Maplog(std::move(file)));
  log->entry_count_ = log->file_->Size() / sizeof(MaplogEntry);
  RQL_RETURN_IF_ERROR(log->LoadMirror());
  return log;
}

Status Maplog::LoadMirror() {
  entries_.resize(entry_count_);
  if (entry_count_ > 0) {
    RQL_RETURN_IF_ERROR(file_->Read(
        0, entry_count_ * sizeof(MaplogEntry),
        reinterpret_cast<char*>(entries_.data())));
  }
  for (uint64_t i = 0; i < entry_count_; ++i) {
    IndexEntry(i);
    if (entries_[i].type == MaplogEntry::kSnapshotMark) {
      if (entries_[i].end_snap != snap_mark_index_.size() + 1) {
        return Status::Corruption("maplog snapshot marks out of order");
      }
      snap_mark_index_.push_back(i);
    } else if (entries_[i].type == MaplogEntry::kTruncate) {
      earliest_ = std::max(earliest_, entries_[i].end_snap);
    }
  }
  return Status::OK();
}

Status Maplog::AppendEntry(const MaplogEntry& entry) {
  uint64_t pre_size = file_->Size();
  uint64_t offset = 0;
  Status s = file_->Append(sizeof(MaplogEntry),
                           reinterpret_cast<const char*>(&entry), &offset);
  if (!s.ok()) {
    // A torn append may have left a partial entry; drop it (best effort)
    // so the log stays entry-aligned for later appends.
    (void)file_->Truncate(pre_size);
    return s;
  }
  entries_.push_back(entry);
  IndexEntry(entry_count_++);
  return Status::OK();
}

void Maplog::IndexEntry(uint64_t index) {
  const MaplogEntry& e = entries_[index];
  if (e.type != MaplogEntry::kCapture) return;
  captures_[e.page].push_back(
      {e.start_snap, e.end_snap, e.pagelog_offset, index});
}

const PageCapture* Maplog::NextCapture(storage::PageId page, SnapshotId snap,
                                       uint64_t limit) const {
  auto it = captures_.find(page);
  if (it == captures_.end()) return nullptr;
  // Ranges are disjoint and ascending in log order, so both the range ends
  // and the log indexes are sorted.
  const std::vector<PageCapture>& caps = it->second;
  auto next = std::partition_point(
      caps.begin(), caps.end(),
      [snap](const PageCapture& c) { return c.end < snap; });
  if (next == caps.end() || next->index >= limit) return nullptr;
  return &*next;
}

const PageCapture* Maplog::Resolve(storage::PageId page, SnapshotId snap,
                                   uint64_t limit) const {
  const PageCapture* next = NextCapture(page, snap, limit);
  // A capture starting after `snap` closes an allocation gap: the page is
  // absent from SPT(snap).
  return next != nullptr && next->start <= snap ? next : nullptr;
}

Status Maplog::AppendCapture(storage::PageId page, SnapshotId start,
                             SnapshotId end, uint64_t pagelog_offset) {
  MaplogEntry entry;
  entry.type = MaplogEntry::kCapture;
  entry.page = page;
  entry.start_snap = start;
  entry.end_snap = end;
  entry.pagelog_offset = pagelog_offset;
  return AppendEntry(entry);
}

Status Maplog::AppendSnapshotMark(SnapshotId snap) {
  if (snap != snap_mark_index_.size() + 1) {
    return Status::InvalidArgument("snapshot marks must be sequential");
  }
  MaplogEntry entry;
  entry.type = MaplogEntry::kSnapshotMark;
  entry.end_snap = snap;
  uint64_t mark_index = entry_count_;
  RQL_RETURN_IF_ERROR(AppendEntry(entry));
  snap_mark_index_.push_back(mark_index);
  return Status::OK();
}

Status Maplog::AppendTruncate(SnapshotId keep_from) {
  MaplogEntry entry;
  entry.type = MaplogEntry::kTruncate;
  entry.end_snap = keep_from;
  earliest_ = std::max(earliest_, keep_from);
  return AppendEntry(entry);
}

Status Maplog::AppendAlloc(storage::PageId page, SnapshotId latest) {
  MaplogEntry entry;
  entry.type = MaplogEntry::kAlloc;
  entry.page = page;
  entry.end_snap = latest;
  return AppendEntry(entry);
}

namespace {

/// Maps `capture`'s page in `spt` when its range covers `snap` and the
/// page has no mapping yet (the first covering capture in log order wins).
void MapIfCovers(const MaplogEntry& capture, SnapshotId snap,
                 SnapshotPageTable* spt) {
  if (capture.start_snap > snap || capture.end_snap < snap) return;
  spt->emplace(capture.page,
               SptEntry{capture.pagelog_offset, capture.start_snap});
}

}  // namespace

void Maplog::ScanEntries(const MaplogEntry* entries, size_t count,
                         SnapshotId snap, SnapshotPageTable* spt) const {
  for (size_t i = 0; i < count; ++i) {
    if (entries[i].type == MaplogEntry::kCapture) {
      MapIfCovers(entries[i], snap, spt);
    }
  }
}

Status Maplog::BuildSptLinear(SnapshotId snap, SnapshotPageTable* spt,
                              SptBuildStats* stats) const {
  uint64_t begin = snap_mark_index_[snap - 1];
  ScanEntries(entries_.data() + begin, entry_count_ - begin, snap, spt);
  ChargeScan(static_cast<int64_t>(entry_count_ - begin), stats);
  return Status::OK();
}

const std::vector<MaplogEntry>& Maplog::GetRun(uint32_t level,
                                               SnapshotId start) const {
  std::lock_guard<std::mutex> lock(runs_mu_);
  return GetRunLocked(level, start);
}

const std::vector<MaplogEntry>& Maplog::GetRunLocked(uint32_t level,
                                                     SnapshotId start) const {
  uint64_t key = (static_cast<uint64_t>(level) << 32) | start;
  auto it = runs_.find(key);
  if (it != runs_.end()) return it->second;

  std::vector<MaplogEntry> run;
  if (level == 0) {
    uint64_t begin = EpochBegin(start);
    uint64_t end = EpochEnd(start);
    run.reserve(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      if (entries_[i].type == MaplogEntry::kCapture) {
        run.push_back(entries_[i]);
      }
    }
  } else {
    const std::vector<MaplogEntry>& left = GetRunLocked(level - 1, start);
    const std::vector<MaplogEntry>& right =
        GetRunLocked(level - 1, start + (1u << (level - 1)));
    run.reserve(left.size() + right.size());
    std::unordered_set<storage::PageId> seen;
    seen.reserve(left.size() + right.size());
    for (const std::vector<MaplogEntry>* half : {&left, &right}) {
      for (const MaplogEntry& entry : *half) {
        if (seen.insert(entry.page).second) run.push_back(entry);
      }
    }
  }
  return runs_.emplace(key, std::move(run)).first->second;
}

Status Maplog::BuildSptSkippy(SnapshotId snap, SnapshotPageTable* spt,
                              SptBuildStats* stats) const {
  int64_t scanned = 0;
  int64_t pages = 0;
  SnapshotId e = snap;
  SnapshotId last = latest();
  while (e <= last) {
    if (e == last) {
      // The open epoch (after the most recent mark) is still growing; scan
      // it directly without memoizing.
      uint64_t begin = EpochBegin(e);
      uint64_t count = entry_count_ - begin;
      ScanEntries(entries_.data() + begin, count, snap, spt);
      scanned += static_cast<int64_t>(count);
      pages += (static_cast<int64_t>(count) + kEntriesPerPage - 1) /
               kEntriesPerPage;
      break;
    }
    // Largest aligned run of closed epochs starting at e.
    uint32_t level = 0;
    while ((static_cast<uint64_t>(e - 1) % (1ull << (level + 1))) == 0 &&
           e + (1u << (level + 1)) - 1 <= last - 1) {
      ++level;
    }
    const std::vector<MaplogEntry>& run = GetRun(level, e);
    // The run keeps the first capture per page, so "first match wins"
    // across runs remains correct.
    for (const MaplogEntry& entry : run) MapIfCovers(entry, snap, spt);
    scanned += static_cast<int64_t>(run.size());
    pages += std::max<int64_t>(
        1, (static_cast<int64_t>(run.size()) + kEntriesPerPage - 1) /
               kEntriesPerPage);
    e += 1u << level;
  }
  if (stats != nullptr) {
    stats->entries_scanned += scanned;
    stats->maplog_pages_read += pages;
  }
  return Status::OK();
}

Status Maplog::PrewarmSkippy() const {
  if (latest() == kNoSnapshot) return Status::OK();
  // Building SPT(1) visits (and memoizes) the maximal runs; the remaining
  // alignments are covered by building from a few more start points.
  SnapshotPageTable scratch;
  SptBuildStats stats;
  for (SnapshotId s = 1; s <= latest(); s = s * 2 + 1) {
    scratch.clear();
    RQL_RETURN_IF_ERROR(BuildSptSkippy(s, &scratch, &stats));
  }
  return Status::OK();
}

Status Maplog::CheckReadable(SnapshotId snap) const {
  if (snap == kNoSnapshot || snap > latest()) {
    return Status::NotFound("unknown snapshot id " + std::to_string(snap));
  }
  if (snap < earliest_) {
    return Status::NotFound("snapshot " + std::to_string(snap) +
                            " has been truncated (earliest is " +
                            std::to_string(earliest_) + ")");
  }
  return Status::OK();
}

Status Maplog::BuildSpt(SnapshotId snap, SnapshotPageTable* spt,
                        uint64_t* resume_index, SptBuildStats* stats) const {
  RQL_RETURN_IF_ERROR(CheckReadable(snap));
  spt->clear();
  int64_t start_us = NowMicros();
  Status s = use_skippy_ ? BuildSptSkippy(snap, spt, stats)
                         : BuildSptLinear(snap, spt, stats);
  *resume_index = entry_count_;
  if (stats != nullptr) stats->cpu_us += NowMicros() - start_us;
  return s;
}

Status Maplog::RefreshSpt(SnapshotId snap, SnapshotPageTable* spt,
                          uint64_t* resume_index, SptBuildStats* stats) const {
  int64_t start_us = NowMicros();
  const int64_t scanned = static_cast<int64_t>(entry_count_ - *resume_index);
  ScanEntries(entries_.data() + *resume_index, entry_count_ - *resume_index,
              snap, spt);
  *resume_index = entry_count_;
  ChargeScan(scanned, stats);
  if (stats != nullptr) stats->cpu_us += NowMicros() - start_us;
  return Status::OK();
}

Status SptCursor::Seek(const Maplog& log, SnapshotId snap,
                       SptBuildStats* stats, int64_t* delta_entries) {
  RQL_RETURN_IF_ERROR(log.CheckReadable(snap));
  int64_t start_us = NowMicros();
  int64_t scanned = 0;
  if (snap_ == kNoSnapshot || snap < snap_) {
    // A rebase: charged as the cold suffix scan from snap's mark.
    scanned = static_cast<int64_t>(log.entry_count_ -
                                   log.snap_mark_index_[snap - 1]);
    last_delta_.clear();
    last_delta_valid_ = false;
  } else {
    // Charged as the physical analog of the incremental build: the log
    // delta between the two declaration marks.
    scanned = static_cast<int64_t>(log.snap_mark_index_[snap - 1] -
                                   log.snap_mark_index_[snap_ - 1]);
    if (delta_entries != nullptr) *delta_entries += scanned;
    ComputeDelta(log, snap);
  }
  snap_ = snap;
  ingested_ = log.entry_count_;
  Maplog::ChargeScan(scanned, stats);
  if (stats != nullptr) stats->cpu_us += NowMicros() - start_us;
  return Status::OK();
}

void SptCursor::ComputeDelta(const Maplog& log, SnapshotId snap) {
  // A page moves between snap_ and snap only through a log entry: a
  // capture expiring in [snap_, snap) was appended in one of those epochs,
  // an allocation gap closing in (snap_, snap] opened with a capture or an
  // allocation in one of them, and a page captured since the last seek is
  // among the entries appended after the ingest mark.
  std::vector<storage::PageId> candidates;
  const uint64_t to = log.snap_mark_index_[snap - 1];
  for (uint64_t i = log.snap_mark_index_[snap_ - 1]; i < to; ++i) {
    const MaplogEntry& e = log.entries_[i];
    if (e.type == MaplogEntry::kCapture || e.type == MaplogEntry::kAlloc) {
      candidates.push_back(e.page);
    }
  }
  for (uint64_t i = std::max(to, ingested_); i < log.entry_count_; ++i) {
    const MaplogEntry& e = log.entries_[i];
    if (e.type == MaplogEntry::kCapture) candidates.push_back(e.page);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  last_delta_.clear();
  last_delta_valid_ = true;
  for (storage::PageId page : candidates) {
    // The capture that decided the page's state at snap_, as of the old
    // ingest mark. The page moves when that capture expires or, after an
    // allocation gap, begins by snap; a page with no such capture moves
    // when it has been captured since (a capture ends at or after the
    // snapshot declared last when it is appended).
    const PageCapture* next = log.NextCapture(page, snap_, ingested_);
    bool moved;
    if (next == nullptr) {
      moved = log.NextCapture(page, snap_, UINT64_MAX) != nullptr;
    } else if (next->start <= snap_) {
      moved = next->end < snap;
    } else {
      moved = next->start <= snap;
    }
    if (moved) last_delta_.push_back(page);
  }
}

Status Maplog::RecoverModEpochs(
    std::unordered_map<storage::PageId, SnapshotId>* mod_epochs,
    SnapshotId* latest_snapshot,
    std::unordered_map<storage::PageId, uint64_t>* last_offsets) const {
  mod_epochs->clear();
  *latest_snapshot = kNoSnapshot;
  if (last_offsets != nullptr) last_offsets->clear();
  for (const MaplogEntry& entry : entries_) {
    switch (entry.type) {
      case MaplogEntry::kSnapshotMark:
        *latest_snapshot = entry.end_snap;
        break;
      case MaplogEntry::kCapture:
        // After a capture the page's content belongs to the epoch following
        // snapshot end_snap.
        (*mod_epochs)[entry.page] = entry.end_snap;
        if (last_offsets != nullptr) {
          (*last_offsets)[entry.page] = entry.pagelog_offset;
        }
        break;
      case MaplogEntry::kAlloc:
        (*mod_epochs)[entry.page] = entry.end_snap;
        break;
      case MaplogEntry::kTruncate:
        break;  // earliest_ handled at load
      default:
        return Status::Corruption("bad maplog entry type");
    }
  }
  return Status::OK();
}

}  // namespace rql::retro
