#include "retro/prefetch_scheduler.h"

#include <algorithm>

#include "common/clock.h"

namespace rql::retro {

PrefetchScheduler::PrefetchScheduler(SnapshotStore* store, Options options)
    : store_(store), options_(std::move(options)) {
  const int n = std::max(1, options_.workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // Register for consumption callbacks only once the workers exist; from
  // here on demand readers may call OnArchivedPageServed concurrently.
  store_->set_prefetch_tracker(this);
}

PrefetchScheduler::~PrefetchScheduler() { Shutdown(); }

void PrefetchScheduler::Schedule(SnapshotId snap) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || jobs_.count(snap) != 0) return;
  auto job = std::make_shared<Job>();
  job->snap = snap;
  jobs_[snap] = job;
  queue_.push_back(std::move(job));
  work_cv_.notify_one();
}

PrefetchScheduler::JobReport PrefetchScheduler::Cancel(SnapshotId snap) {
  return Finish(snap, /*keep_error=*/false);
}

PrefetchScheduler::JobReport PrefetchScheduler::Collect(SnapshotId snap) {
  return Finish(snap, /*keep_error=*/true);
}

PrefetchScheduler::JobReport PrefetchScheduler::Finish(SnapshotId snap,
                                                       bool keep_error) {
  std::shared_ptr<Job> job;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = jobs_.find(snap);
    if (it == jobs_.end()) return JobReport{};
    job = it->second;
    jobs_.erase(it);
    job->cancel.store(true, std::memory_order_release);
    // Still queued: it never reached a worker, so finish it in place —
    // nothing was planned or issued, nothing to wait for.
    auto qit = std::find(queue_.begin(), queue_.end(), job);
    if (qit != queue_.end()) {
      queue_.erase(qit);
      job->done = true;
    }
    // Otherwise a worker owns it; the cancel token stops further issue
    // after the at-most-one in-flight page, bounding this wait by a single
    // archive read.
    done_cv_.wait(lock, [&job] { return job->done; });
  }
  JobReport report;
  report.scheduled = true;
  report.issued = job->issued;
  report.cancelled = job->cancelled;
  report.overlap_us = job->overlap_us;
  if (keep_error) report.error = job->error;
  return report;
}

int64_t PrefetchScheduler::TakeHits() {
  std::lock_guard<std::mutex> lock(track_mu_);
  int64_t hits = hits_;
  hits_ = 0;
  return hits;
}

void PrefetchScheduler::Drain(SnapshotId snap) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(snap);
  if (it == jobs_.end()) return;
  std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&job] { return job->done; });
}

int64_t PrefetchScheduler::TakeWasted() {
  std::lock_guard<std::mutex> lock(track_mu_);
  int64_t wasted = static_cast<int64_t>(loaded_.size());
  loaded_.clear();
  return wasted;
}

void PrefetchScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [snap, job] : jobs_) {
      job->cancel.store(true, std::memory_order_release);
    }
    // Queued-but-never-started jobs finish here so a Finish already
    // waiting on them is released.
    for (const std::shared_ptr<Job>& job : queue_) job->done = true;
    queue_.clear();
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.clear();
  }
  // Deregister only after the workers are gone: past this line no thread
  // of this scheduler touches the store, so the engine may destroy it
  // before the run returns without an Env/file use-after-free window.
  store_->clear_prefetch_tracker(this);
}

void PrefetchScheduler::OnArchivedPageServed(uint64_t pagelog_offset) {
  std::lock_guard<std::mutex> lock(track_mu_);
  if (loaded_.erase(pagelog_offset) != 0) {
    ++hits_;
  } else if (auto it = claims_.find(pagelog_offset); it != claims_.end()) {
    // Our fetch of this page is still in flight: credit the read only
    // once the fetch turns out to have loaded it.
    it->second = true;
  }
}

void PrefetchScheduler::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // only reachable on shutdown
      job = queue_.front();
      queue_.pop_front();
    }
    if (!job->cancel.load(std::memory_order_acquire)) RunJob(job.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      job->done = true;
    }
    done_cv_.notify_all();
  }
}

void PrefetchScheduler::RunJob(Job* job) {
  const int64_t start_us = NowMicros();
  uint64_t epoch = 0;
  std::vector<uint64_t> plan;
  // A planning failure is dropped silently on purpose: the foreground
  // OpenSnapshot re-derives the same SPT and surfaces the same error on
  // the synchronous path, so nothing is lost — the iteration just runs
  // unprefetched.
  if (Plan(job, &epoch, &plan).ok()) {
    for (size_t i = 0; i < plan.size(); ++i) {
      if (job->cancel.load(std::memory_order_acquire) ||
          store_->truncate_epoch() != epoch) {
        // Epoch moved: compaction rewrote the archive, these offsets no
        // longer name the bytes the plan meant.
        job->cancelled += static_cast<int64_t>(plan.size() - i);
        break;
      }
      const uint64_t offset = plan[i];
      // Claim the offset before the load so a demand read that coalesces
      // onto our in-flight fetch is remembered; it becomes a hit only if
      // the load below turns out to be ours.
      bool claimed;
      {
        std::lock_guard<std::mutex> lock(track_mu_);
        claimed = loaded_.count(offset) == 0 &&
                  claims_.emplace(offset, false).second;
      }
      int64_t fetches = 0;
      storage::BufferPool::GetOutcome outcome;
      auto loader = store_->MakeArchiveLoader(&fetches, /*prefetch=*/true);
      Result<storage::PinnedPage> r = store_->snapshot_cache_.Get(
          offset, loader, &outcome, storage::BufferPool::Admission::kPrefetch);
      // Same bounded-retry policy as the demand path, but the retries are
      // not folded into the store's iteration stats: background attempts
      // must not distort the foreground run's attribution.
      int attempts = store_->archive_read_retries();
      while (!r.ok() && attempts-- > 0) {
        outcome = storage::BufferPool::GetOutcome{};
        r = store_->snapshot_cache_.Get(
            offset, loader, &outcome,
            storage::BufferPool::Admission::kPrefetch);
      }
      const bool ours = r.ok() && outcome.loaded;
      if (ours) ++job->issued;
      if (claimed) {
        // Resident already, someone else's load, or an error: not a page
        // we fetched ahead, so a read served meanwhile is no hit. Only a
        // page this job issued can be credited or become waste.
        std::lock_guard<std::mutex> lock(track_mu_);
        auto it = claims_.find(offset);
        const bool served = it->second;
        claims_.erase(it);
        if (ours && served) {
          ++hits_;
        } else if (ours) {
          loaded_.insert(offset);
        }
      }
      if (!r.ok()) {
        // Park the first failure for Collect; the consuming iteration
        // surfaces it exactly as the synchronous batched pass would have.
        job->error = r.status();
        job->cancelled += static_cast<int64_t>(plan.size() - i - 1);
        break;
      }
    }
  }
  job->overlap_us = NowMicros() - start_us;
}

Status PrefetchScheduler::Plan(const Job* job, uint64_t* epoch,
                               std::vector<uint64_t>* plan) {
  // plan_mu_ serializes workers on the single private cursor; the store's
  // reader lock keeps the Maplog and latest-snapshot mark stable.
  std::lock_guard<std::mutex> plan_lock(plan_mu_);
  std::shared_lock<std::shared_mutex> store_lock(store_->mu_);
  *epoch = store_->truncate_epoch();
  if (job->snap == kNoSnapshot || job->snap > store_->latest_snap_) {
    return Status::InvalidArgument("prefetch: snapshot not declared");
  }
  // Local build stats: background planning never pollutes the run's
  // SPT-build attribution.
  SptBuildStats build;
  int64_t delta_entries = 0;
  RQL_RETURN_IF_ERROR(
      cursor_.Seek(*store_->maplog_, job->snap, &build, &delta_entries));
  const SnapshotPageTable& table = cursor_.table();

  std::unordered_set<uint64_t> planned;
  auto want = [&](uint64_t offset) {
    if (store_->snapshot_cache_.Contains(offset)) return false;
    if (options_.is_decoded && options_.is_decoded(offset)) return false;
    return planned.insert(offset).second;
  };

  // Delta pages — the ones whose mapping changed since the previous step —
  // are certainly not warm from earlier iterations, so they go ahead of
  // the residual sweep and survive a budget clip.
  std::vector<uint64_t> head;
  if (cursor_.last_delta_valid()) {
    for (storage::PageId id : cursor_.last_delta()) {
      auto it = table.find(id);
      if (it != table.end() && want(it->second)) head.push_back(it->second);
    }
  }
  std::vector<uint64_t> tail;
  tail.reserve(table.size());
  for (const auto& [id, offset] : table) {
    (void)id;
    if (want(offset)) tail.push_back(offset);
  }
  // Offset order within each group: the archive's sequential-read regime.
  std::sort(head.begin(), head.end());
  std::sort(tail.begin(), tail.end());
  plan->clear();
  plan->reserve(head.size() + tail.size());
  plan->insert(plan->end(), head.begin(), head.end());
  plan->insert(plan->end(), tail.begin(), tail.end());
  // The clip drops the probably-resident tail of the sweep; clipped pages
  // are not counted as cancelled — the budget is policy, not interruption.
  if (options_.budget_pages > 0 &&
      plan->size() > static_cast<size_t>(options_.budget_pages)) {
    plan->resize(static_cast<size_t>(options_.budget_pages));
  }
  return Status::OK();
}

}  // namespace rql::retro
