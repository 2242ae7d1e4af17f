#include "retro/snapshot_store.h"

#include <chrono>
#include <thread>

#include "common/clock.h"

namespace rql::retro {

namespace {
std::string TruncateMarkerName(const std::string& name) {
  return name + ".compact.commit";
}
}  // namespace

Status SnapshotStore::RecoverTruncation(storage::Env* env,
                                        const std::string& name) {
  const std::string pagelog = name + ".pagelog";
  const std::string maplog = name + ".maplog";
  if (env->FileExists(TruncateMarkerName(name))) {
    // The compacted logs were complete when the marker was written:
    // (re)finish the swap.
    for (const std::string& file : {pagelog, maplog}) {
      if (env->FileExists(file + ".compact")) {
        if (env->FileExists(file)) {
          RQL_RETURN_IF_ERROR(env->DeleteFile(file));
        }
        RQL_RETURN_IF_ERROR(env->RenameFile(file + ".compact", file));
      }
    }
    return env->DeleteFile(TruncateMarkerName(name));
  }
  // No marker: any leftover .compact files belong to an interrupted
  // compaction that never committed; discard them.
  for (const std::string& file : {pagelog, maplog}) {
    if (env->FileExists(file + ".compact")) {
      RQL_RETURN_IF_ERROR(env->DeleteFile(file + ".compact"));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(
    storage::Env* env, const std::string& name, Options options) {
  RQL_RETURN_IF_ERROR(RecoverTruncation(env, name));
  auto store = std::unique_ptr<SnapshotStore>(new SnapshotStore(options));
  store->env_ = env;
  store->name_ = name;
  RQL_ASSIGN_OR_RETURN(store->store_,
                       storage::PageStore::Open(env, name + ".db"));
  RQL_ASSIGN_OR_RETURN(store->pagelog_,
                       Pagelog::Open(env, name + ".pagelog"));
  RQL_ASSIGN_OR_RETURN(store->maplog_, Maplog::Open(env, name + ".maplog"));
  RQL_RETURN_IF_ERROR(store->maplog_->RecoverModEpochs(
      &store->mod_epoch_, &store->latest_snap_,
      &store->last_capture_offset_));
  store->snapshot_cache_.set_capacity(options.snapshot_cache_pages);
  // Archive-ahead ordering: before any page-store commit becomes durable,
  // flush the pre-states it is about to overwrite and their Maplog
  // mappings. Without this, a crash could persist post-states whose
  // archived pre-states were still buffered — silently breaking every
  // snapshot declared before the commit.
  SnapshotStore* raw = store.get();
  store->store_->set_pre_commit_hook([raw]() -> Status {
    if (raw->pagelog_ != nullptr) RQL_RETURN_IF_ERROR(raw->pagelog_->Sync());
    if (raw->maplog_ != nullptr) RQL_RETURN_IF_ERROR(raw->maplog_->Sync());
    return Status::OK();
  });
  return store;
}

Status SnapshotStore::CaptureIfNeeded(storage::PageId id,
                                      const storage::Page* current) {
  if (latest_snap_ == kNoSnapshot) return Status::OK();
  SnapshotId epoch = ModEpoch(id);
  if (epoch >= latest_snap_) return Status::OK();  // already captured/fresh
  storage::Page pre_state;
  if (current == nullptr) {
    RQL_RETURN_IF_ERROR(store_->ReadPage(id, &pre_state));
    current = &pre_state;
  }
  uint64_t offset = 0;
  auto base_it = last_capture_offset_.find(id);
  if (options_.pagelog_mode == PagelogMode::kDiff &&
      base_it != last_capture_offset_.end()) {
    storage::Page base;
    RQL_RETURN_IF_ERROR(pagelog_->Read(base_it->second, &base));
    RQL_ASSIGN_OR_RETURN(offset,
                         pagelog_->AppendDiff(*current, base_it->second,
                                              base));
  } else {
    RQL_ASSIGN_OR_RETURN(offset, pagelog_->AppendFull(*current));
  }
  last_capture_offset_[id] = offset;
  RQL_RETURN_IF_ERROR(
      maplog_->AppendCapture(id, epoch + 1, latest_snap_, offset));
  mod_epoch_[id] = latest_snap_;
  return Status::OK();
}

Result<storage::PageId> SnapshotStore::AllocatePage() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  RQL_ASSIGN_OR_RETURN(storage::PageId id, store_->AllocatePage());
  if (latest_snap_ != kNoSnapshot && ModEpoch(id) != latest_snap_) {
    mod_epoch_[id] = latest_snap_;
    RQL_RETURN_IF_ERROR(maplog_->AppendAlloc(id, latest_snap_));
  }
  return id;
}

Status SnapshotStore::FreePage(storage::PageId id) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  // Freeing rewrites the page (free-list link), so the pre-state must be
  // archived like any other modification.
  storage::Page current;
  RQL_RETURN_IF_ERROR(store_->ReadPage(id, &current));
  RQL_RETURN_IF_ERROR(CaptureIfNeeded(id, &current));
  return store_->FreePage(id);
}

Status SnapshotStore::ReadPage(storage::PageId id, storage::Page* page) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  return store_->ReadPage(id, page);
}

Status SnapshotStore::WritePage(storage::PageId id,
                                const storage::Page& page) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (latest_snap_ != kNoSnapshot && ModEpoch(id) < latest_snap_) {
    storage::Page current;
    RQL_RETURN_IF_ERROR(store_->ReadPage(id, &current));
    RQL_RETURN_IF_ERROR(CaptureIfNeeded(id, &current));
  }
  return store_->WritePage(id, page);
}

Status SnapshotStore::Begin() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (in_txn_) return Status::InvalidArgument("transaction already active");
  RQL_RETURN_IF_ERROR(store_->BeginBatch());
  in_txn_ = true;
  return Status::OK();
}

Status SnapshotStore::Commit(bool declare_snapshot, SnapshotId* declared) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (!in_txn_) return Status::InvalidArgument("no active transaction");
  // The batch is consumed either way (CommitBatch drops it on failure), so
  // the transaction ends even when the commit does not stick.
  in_txn_ = false;
  RQL_RETURN_IF_ERROR(store_->CommitBatch());
  if (declare_snapshot) {
    RQL_ASSIGN_OR_RETURN(SnapshotId snap, DeclareSnapshotLocked());
    if (declared != nullptr) *declared = snap;
  }
  return Status::OK();
}

Status SnapshotStore::Rollback() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (!in_txn_) return Status::InvalidArgument("no active transaction");
  // The WAL batch never reached the file; dropping it undoes everything.
  // Captures made during the transaction stay in the archive, and remain
  // correct: they recorded exactly the content the rollback restores.
  in_txn_ = false;
  return store_->RollbackBatch();
}

Result<SnapshotId> SnapshotStore::DeclareSnapshot() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  return DeclareSnapshotLocked();
}

Result<SnapshotId> SnapshotStore::DeclareSnapshotLocked() {
  if (in_txn_) {
    return Status::InvalidArgument(
        "DeclareSnapshot inside a transaction; use Commit(declare_snapshot)");
  }
  SnapshotId snap = latest_snap_ + 1;
  RQL_RETURN_IF_ERROR(maplog_->AppendSnapshotMark(snap));
  // A snapshot counts as declared only once its mark is durable — the
  // caller's COMMIT WITH SNAPSHOT must not ack a declaration a crash
  // could lose.
  RQL_RETURN_IF_ERROR(maplog_->Sync());
  latest_snap_ = snap;
  return snap;
}

Status SnapshotStore::TruncateHistory(SnapshotId keep_from) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  if (in_txn_) {
    return Status::InvalidArgument(
        "TruncateHistory inside a transaction is not allowed");
  }
  if (keep_from <= maplog_->earliest()) return Status::OK();
  if (keep_from > latest_snap_ + 1) {
    return Status::InvalidArgument("cannot truncate beyond the history");
  }

  const std::string pagelog_name = name_ + ".pagelog";
  const std::string maplog_name = name_ + ".maplog";
  // Start from a clean slate in case an earlier attempt was interrupted
  // before committing.
  RQL_RETURN_IF_ERROR(RecoverTruncation(env_, name_));

  // 1. Stream-rewrite both logs, dropping captures that cover only
  //    truncated snapshots and re-basing kept pre-states.
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<Pagelog> new_pagelog,
                       Pagelog::Open(env_, pagelog_name + ".compact"));
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<Maplog> new_maplog,
                       Maplog::Open(env_, maplog_name + ".compact"));
  RQL_RETURN_IF_ERROR(new_maplog->AppendTruncate(keep_from));

  // Per page: the offset of its last rewritten record (the diff base).
  std::unordered_map<storage::PageId, uint64_t> rebase;
  for (const MaplogEntry& entry : maplog_->entries()) {
    switch (entry.type) {
      case MaplogEntry::kSnapshotMark:
        RQL_RETURN_IF_ERROR(new_maplog->AppendSnapshotMark(entry.end_snap));
        break;
      case MaplogEntry::kAlloc:
        RQL_RETURN_IF_ERROR(
            new_maplog->AppendAlloc(entry.page, entry.end_snap));
        break;
      case MaplogEntry::kTruncate:
        break;  // superseded by the new truncate record
      case MaplogEntry::kCapture: {
        if (entry.end_snap < keep_from) break;  // covers dropped snaps only
        storage::Page content;
        RQL_RETURN_IF_ERROR(pagelog_->Read(entry.pagelog_offset, &content));
        uint64_t new_offset = 0;
        auto base = rebase.find(entry.page);
        if (options_.pagelog_mode == PagelogMode::kDiff &&
            base != rebase.end()) {
          storage::Page base_content;
          RQL_RETURN_IF_ERROR(
              new_pagelog->Read(base->second, &base_content));
          RQL_ASSIGN_OR_RETURN(
              new_offset,
              new_pagelog->AppendDiff(content, base->second, base_content));
        } else {
          RQL_ASSIGN_OR_RETURN(new_offset, new_pagelog->AppendFull(content));
        }
        rebase[entry.page] = new_offset;
        RQL_RETURN_IF_ERROR(new_maplog->AppendCapture(
            entry.page, entry.start_snap, entry.end_snap, new_offset));
        break;
      }
      default:
        return Status::Corruption("bad maplog entry during truncation");
    }
  }
  new_pagelog.reset();
  new_maplog.reset();

  // 2. Commit point: once the marker exists, recovery completes the swap.
  {
    RQL_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> marker,
                         env_->OpenFile(TruncateMarkerName(name_)));
    uint64_t offset = 0;
    RQL_RETURN_IF_ERROR(marker->Append(2, "ok", &offset));
    RQL_RETURN_IF_ERROR(marker->Sync());
  }
  pagelog_.reset();
  maplog_.reset();
  RQL_RETURN_IF_ERROR(RecoverTruncation(env_, name_));

  // 3. Reopen on the compacted logs and rebuild in-memory state.
  RQL_ASSIGN_OR_RETURN(pagelog_, Pagelog::Open(env_, pagelog_name));
  RQL_ASSIGN_OR_RETURN(maplog_, Maplog::Open(env_, maplog_name));
  RQL_RETURN_IF_ERROR(maplog_->RecoverModEpochs(&mod_epoch_, &latest_snap_,
                                                &last_capture_offset_));
  truncate_epoch_.fetch_add(1, std::memory_order_acq_rel);
  snapshot_cache_.Clear();
  // Cached shared SPTs hold pre-compaction Pagelog offsets (recycled
  // keys) and must go; snapshot-set cursors notice the epoch bump and
  // rebase on their next seek. No build is in flight here: builds run
  // under the shared half of mu_, which we hold exclusively.
  {
    std::lock_guard<std::mutex> share_lock(spt_share_mu_);
    spt_shared_.clear();
  }
  return Status::OK();
}

Result<std::unique_ptr<SnapshotView>> SnapshotStore::OpenSnapshot(
    SnapshotId snap) {
  int64_t lock_start_us = NowMicros();
  std::shared_lock<std::shared_mutex> lock(mu_);
  const int64_t waited_us = NowMicros() - lock_start_us;
  if (snap == kNoSnapshot || snap > latest_snap_) {
    return Status::NotFound("unknown snapshot id " + std::to_string(snap));
  }
  auto view = std::unique_ptr<SnapshotView>(new SnapshotView(this, snap));
  view->stats_.lock_wait_us = waited_us;
  if (share_spt_builds_.load(std::memory_order_relaxed)) {
    RQL_RETURN_IF_ERROR(FillSptShared(snap, view.get()));
  } else {
    RQL_RETURN_IF_ERROR(maplog_->BuildSpt(snap, &view->spt_,
                                          &view->resume_index_,
                                          &view->stats_.spt));
  }
  return view;
}

Status SnapshotSet::SeekLocked(SnapshotId snap, IterationStats* stats) {
  const uint64_t epoch = store_->truncate_epoch();
  if (epoch != epoch_) {
    // Compaction rewrote the log: the cursor's chains hold stale offsets
    // and log positions, so start over from a cold build.
    cursor_ = SptCursor();
    epoch_ = epoch;
  }
  return cursor_.Seek(*store_->maplog_, snap, &stats->spt,
                      &stats->spt_delta_entries);
}

Result<bool> SnapshotSet::Advance(SnapshotId snap,
                                  std::vector<storage::PageId>* delta,
                                  IterationStats* stats) {
  delta->clear();
  IterationStats unused;
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  RQL_RETURN_IF_ERROR(SeekLocked(snap, stats != nullptr ? stats : &unused));
  if (!cursor_.last_delta_valid()) return false;
  *delta = cursor_.last_delta();
  return true;
}

bool SnapshotSet::PageVersion(storage::PageId page, uint64_t* version) const {
  const SnapshotPageTable& spt = cursor_.table();
  auto it = spt.find(page);
  if (it == spt.end()) return false;
  *version = it->second;
  return true;
}

Result<std::unique_ptr<SnapshotView>> SnapshotSet::Open(SnapshotId snap) {
  int64_t lock_start_us = NowMicros();
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  auto view = std::unique_ptr<SnapshotView>(new SnapshotView(store_, snap));
  view->stats_.lock_wait_us = NowMicros() - lock_start_us;
  RQL_RETURN_IF_ERROR(SeekLocked(snap, &view->stats_));
  int64_t copy_start_us = NowMicros();
  view->spt_ = cursor_.table();
  view->stats_.spt.cpu_us += NowMicros() - copy_start_us;
  view->resume_index_ = store_->maplog_->entry_count();
  view->set_version_recorder(version_recorder_);
  return view;
}

Status SnapshotStore::FillSptShared(SnapshotId snap, SnapshotView* view) {
  constexpr size_t kMaxSharedSpts = 64;
  std::shared_ptr<SharedSpt> entry;
  bool builder = false;
  {
    std::lock_guard<std::mutex> share_lock(spt_share_mu_);
    auto it = spt_shared_.find(snap);
    if (it == spt_shared_.end()) {
      // Crude bound: tables can be large, and runs sweep snapshots in
      // order, so wholesale reset beats tracking recency. In-flight
      // waiters keep their entry alive through their own shared_ptr.
      if (spt_shared_.size() >= kMaxSharedSpts) spt_shared_.clear();
      entry = std::make_shared<SharedSpt>();
      spt_shared_.emplace(snap, entry);
      builder = true;
    } else {
      entry = it->second;
    }
  }
  if (builder) {
    entry->status = maplog_->BuildSpt(snap, &entry->table,
                                      &entry->resume_index, &view->stats_.spt);
    {
      std::lock_guard<std::mutex> entry_lock(entry->mu);
      entry->done = true;
    }
    entry->cv.notify_all();
    if (!entry->status.ok()) {
      // Do not cache failures; let the next caller retry the build.
      std::lock_guard<std::mutex> share_lock(spt_share_mu_);
      auto it = spt_shared_.find(snap);
      if (it != spt_shared_.end() && it->second == entry) {
        spt_shared_.erase(it);
      }
      return entry->status;
    }
  } else {
    {
      std::unique_lock<std::mutex> entry_lock(entry->mu);
      entry->cv.wait(entry_lock, [&] { return entry->done; });
    }
    if (!entry->status.ok()) return entry->status;
    shared_spt_builds_total_.fetch_add(1, std::memory_order_relaxed);
  }
  // Copy out (views mutate their table during Maplog catch-up). A table
  // built earlier than `now` is sound: resume_index records where its
  // build stopped, and the view's refresh path replays the suffix.
  int64_t copy_start_us = NowMicros();
  view->spt_ = entry->table;
  view->resume_index_ = entry->resume_index;
  view->stats_.spt.cpu_us += NowMicros() - copy_start_us;
  return Status::OK();
}

storage::BufferPool::Loader SnapshotStore::MakeArchiveLoader(
    int64_t* fetches) {
  return [this, fetches](uint64_t off, storage::Page* p) {
    // Diff-chain reconstruction may touch several records; each counts as
    // an archive fetch (the Thresher trade-off).
    const int64_t fetches_before = *fetches;
    Status s = pagelog_->Read(off, p, fetches);
    if (s.ok()) {
      auto* hist = diff_depth_hist_.load(std::memory_order_acquire);
      if (hist != nullptr && *fetches > fetches_before) {
        // Records touched minus one == the chain depth DepthAt(off) would
        // report, without a second log walk.
        hist->ObserveUs(*fetches - fetches_before - 1);
      }
    }
    int64_t latency_us =
        simulated_archive_latency_us_.load(std::memory_order_relaxed);
    if (s.ok() && latency_us > 0) {
      // With bounded fetch slots the sleep itself queues, so concurrent
      // fetches beyond the archive's bandwidth serialize.
      const int slots =
          simulated_archive_fetch_slots_.load(std::memory_order_relaxed);
      if (slots > 0) {
        std::unique_lock<std::mutex> slot_lock(archive_fetch_mu_);
        archive_fetch_cv_.wait(slot_lock, [this, slots] {
          return archive_fetches_inflight_ < slots;
        });
        ++archive_fetches_inflight_;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
      if (slots > 0) {
        {
          std::lock_guard<std::mutex> slot_lock(archive_fetch_mu_);
          --archive_fetches_inflight_;
        }
        // All, not one: waiters that read different slot limits wake on
        // different predicates.
        archive_fetch_cv_.notify_all();
      }
    }
    return s;
  };
}

Status SnapshotView::ReadArchived(uint64_t pagelog_offset,
                                  storage::Page* page) {
  RQL_ASSIGN_OR_RETURN(storage::PinnedPage pin,
                       ReadArchivedPinned(pagelog_offset));
  *page = *pin;
  return Status::OK();
}

Result<storage::PinnedPage> SnapshotView::ReadArchivedPinned(
    uint64_t pagelog_offset) {
  int64_t fetches = 0;
  storage::BufferPool::GetOutcome outcome;
  auto fetch = [&]() {
    fetches = 0;
    outcome = {};
    return store_->snapshot_cache_.Get(
        pagelog_offset, store_->MakeArchiveLoader(&fetches), &outcome);
  };
  // Transient media errors are retried within the configured budget; a
  // persistent failure still propagates to the iteration. Coalesced
  // waiters receive the owner's error and retry with their own fresh load.
  Result<storage::PinnedPage> result = fetch();
  for (int r = 0; !result.ok() && r < store_->archive_read_retries(); ++r) {
    ++stats_.archive_read_retries;
    result = fetch();
  }
  if (!result.ok()) return result;
  if (outcome.loaded) {
    stats_.pagelog_page_reads += fetches;
  } else if (outcome.coalesced) {
    ++stats_.coalesced_loads;
    stats_.lock_wait_us += outcome.wait_us;
  } else {
    ++stats_.snapshot_cache_hits;
  }
  return result;
}

bool SnapshotView::PageVersion(storage::PageId id, uint64_t* version) {
  // A scan-cache hit answers the read from this version lookup alone,
  // never reaching ReadPage/ReadPagePinned — so the read is recorded here
  // too, keeping the memo's read set a superset of the pages the query
  // depends on.
  // Only SPT-mapped pages have a stable identity: their content lives in
  // an immutable archive record at a fixed offset. A page shared with the
  // current database may change under a concurrently committing update, so
  // it is deliberately unversioned (and thus uncacheable across reads).
  auto it = spt_.find(id);
  if (it == spt_.end()) {
    RecordVersion(id, kUnversionedPageToken);
    return false;
  }
  RecordVersion(id, it->second);
  *version = it->second;
  return true;
}

Result<storage::PinnedPage> SnapshotView::ReadPagePinned(
    storage::PageId id) {
  auto it = spt_.find(id);
  if (it == spt_.end()) {
    RecordVersion(id, kUnversionedPageToken);
    return storage::PinnedPage();
  }
  RecordVersion(id, it->second);
  return ReadArchivedPinned(it->second);
}

Status SnapshotView::ReadPage(storage::PageId id, storage::Page* page) {
  // Fast path: the page is archived and already mapped by this view's SPT.
  // The SPT is view-local, archive records are immutable and the snapshot
  // cache synchronizes internally, so no store lock is needed; concurrent
  // workers only meet inside the cache, where racing misses on a shared
  // pre-state page coalesce into one archive read.
  auto it = spt_.find(id);
  if (it != spt_.end()) {
    RecordVersion(id, it->second);
    return ReadArchived(it->second, page);
  }

  // SPT miss: the page is either shared with the current state or was
  // captured after this view was built. Both checks consult metadata that
  // update transactions mutate, so they hold the reader half of the store
  // lock (excluding writers, not other snapshot readers).
  int64_t lock_start_us = NowMicros();
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  stats_.lock_wait_us += NowMicros() - lock_start_us;
  if (store_->ModEpoch(id) >= snap_) {
    // The page was modified after this view was built; its pre-state is in
    // a Maplog suffix we have not scanned yet.
    RQL_RETURN_IF_ERROR(store_->maplog_->RefreshSpt(snap_, &spt_,
                                                    &resume_index_,
                                                    &stats_.spt));
    it = spt_.find(id);
    if (it == spt_.end()) {
      return Status::Corruption("page " + std::to_string(id) +
                                " does not exist in snapshot " +
                                std::to_string(snap_));
    }
    lock.unlock();
    RecordVersion(id, it->second);
    return ReadArchived(it->second, page);
  }
  // Shared with the current database state.
  ++stats_.db_page_reads;
  RecordVersion(id, kUnversionedPageToken);
  return store_->store_->ReadPage(id, page);
}

}  // namespace rql::retro
