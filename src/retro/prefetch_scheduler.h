#ifndef RQL_RETRO_PREFETCH_SCHEDULER_H_
#define RQL_RETRO_PREFETCH_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "retro/maplog.h"
#include "retro/snapshot_store.h"

namespace rql::retro {

/// Background archive-read pipeline for sequential RQL runs: while the
/// engine executes iteration i, a small worker pool fetches the archive
/// pages iteration i+1 will need, so the next iteration starts against a
/// warm snapshot cache and its I/O wall time overlaps the current
/// iteration's CPU time.
///
/// Per scheduled snapshot the pipeline:
///   - plans under the store's reader lock with a private SptCursor:
///     seeks the snapshot's SPT incrementally, then collects the mapped
///     Pagelog offsets that are not already resident (BufferPool probe)
///     and whose decoded form is not already cached (the optional
///     `is_decoded` probe, wired to SharedScanCache); when the cursor's
///     last_delta() is valid, the delta's pages — the ones that certainly
///     changed mapping since the previous step — are planned ahead of the
///     residual sweep, so a budget clip drops the probably-resident tail,
///     not the certainly-missing head;
///   - issues the plan offset-ordered (the archive's sequential-read
///     regime), at most `budget_pages` pages per step, one page per
///     BufferPool::Get so a demand read coalesces with the in-flight
///     prefetch instead of duplicating it; loads use prefetch admission
///     (no LRU perturbation on hits, eviction spares pinned frames) and
///     the prefetch-flagged archive loader (simulated latency and
///     bandwidth slots apply, but demand readers take slot priority);
///   - parks the first background I/O error on the job; Collect surfaces
///     it to the consuming iteration as the same Status the synchronous
///     batched pass would have returned — never lost, never fatal on a
///     worker thread. Cancel (the step was replayed from the skip or memo
///     path, so the synchronous path would not have read these pages)
///     discards the parked error with the job.
///
/// Cancellation and shutdown ordering: Schedule never blocks; Cancel and
/// Collect set the job's cancel token, drop it from the queue if it never
/// started, and wait for the worker to finish the at-most-one in-flight
/// page (bounded by a single archive read). Shutdown cancels everything,
/// joins the workers, then deregisters the consumption tracker — after it
/// returns no thread of this scheduler can touch the store, so the engine
/// tears the scheduler down before the run returns and there is no
/// Env/file use-after-free window. A TruncateHistory epoch bump observed
/// mid-job abandons the remaining plan (offsets from the old epoch are
/// meaningless in the compacted log).
///
/// Consumption accounting: offsets the pipeline loaded are remembered
/// until a demand read consumes them (SnapshotStore::PrefetchTracker →
/// TakeHits) or the run ends (TakeWasted), giving the engine the
/// issued / hits / wasted / cancelled split it reports per iteration.
class PrefetchScheduler : public PrefetchTracker {
 public:
  struct Options {
    /// Worker threads. Two lets the next job start planning while the
    /// previous one drains its final in-flight page under Collect.
    int workers = 2;
    /// Max pages fetched ahead per scheduled step; 0 = unbounded. Bounds
    /// both the background read amplification and how much of the pool
    /// a prefetch sweep can claim.
    int budget_pages = 64;
    /// Optional probe: true when this page version's decoded form is
    /// already resident in the run's decoded-page cache, so fetching its
    /// raw bytes would be wasted bandwidth. Must be thread-safe (wired to
    /// SharedScanCache::Contains).
    std::function<bool(uint64_t)> is_decoded;
  };

  /// What one scheduled step did, returned by Collect/Cancel.
  struct JobReport {
    bool scheduled = false;  // a job for this snapshot existed
    int64_t issued = 0;      // pages this job loaded into the cache
    int64_t cancelled = 0;   // planned pages dropped before issue
    int64_t overlap_us = 0;  // wall time the job spent planning + fetching
    Status error;            // first parked background I/O error
  };

  /// The store must outlive the scheduler. Workers start immediately.
  PrefetchScheduler(SnapshotStore* store, Options options);
  ~PrefetchScheduler() override;

  PrefetchScheduler(const PrefetchScheduler&) = delete;
  PrefetchScheduler& operator=(const PrefetchScheduler&) = delete;

  /// Enqueues a prefetch job for `snap`. Non-blocking; duplicate
  /// schedules of a pending snapshot are no-ops.
  void Schedule(SnapshotId snap);

  /// Cancels `snap`'s job: stops further issue, waits out the at-most-one
  /// in-flight page, and returns the job's counts with the parked error
  /// discarded (the consuming iteration replayed, so the synchronous path
  /// would not have issued these reads either).
  JobReport Cancel(SnapshotId snap);

  /// Consumes `snap`'s job at the head of its iteration: cancels the
  /// un-issued remainder (the iteration's own demand reads take over,
  /// with priority), waits out the in-flight page, and returns the
  /// counts plus any parked error for the caller to surface.
  JobReport Collect(SnapshotId snap);

  /// Prefetched pages consumed by demand reads since the last call.
  int64_t TakeHits();

  /// Pages loaded ahead but never consumed. Meaningful at run end, after
  /// Shutdown; resets the tally.
  int64_t TakeWasted();

  /// Blocks until `snap`'s job (if any) has run to completion, leaving it
  /// collectable. The engine's pipeline never waits on a background job —
  /// Collect at iteration head is demand priority — but a deterministic
  /// observer (tests, diagnostics) needs a finished job to look at.
  void Drain(SnapshotId snap);

  /// Cancels all jobs and joins the workers; idempotent. After return the
  /// scheduler issues no further store access.
  void Shutdown();

  // PrefetchTracker: a demand read was served a resident archive page.
  void OnArchivedPageServed(uint64_t pagelog_offset) override;

 private:
  struct Job {
    SnapshotId snap = kNoSnapshot;
    std::atomic<bool> cancel{false};
    // Remaining fields are written by the owning worker and published to
    // Cancel/Collect by the done flip under mu_.
    bool done = false;
    int64_t issued = 0;
    int64_t cancelled = 0;
    int64_t overlap_us = 0;
    Status error;
  };

  void WorkerLoop();
  void RunJob(Job* job);
  /// Fills `plan` with the offset-ordered, budget-clipped fetch list for
  /// `job` and stamps the job's truncate epoch. Runs under the store's
  /// reader lock.
  Status Plan(const Job* job, uint64_t* epoch, std::vector<uint64_t>* plan);
  /// Common tail of Cancel/Collect: detach the job, cancel it, wait for
  /// the worker, report.
  JobReport Finish(SnapshotId snap, bool keep_error);

  SnapshotStore* store_;
  Options options_;

  std::mutex mu_;  // queue_, jobs_, shutdown_, Job::done
  std::condition_variable work_cv_;  // workers: queue_ or shutdown_
  std::condition_variable done_cv_;  // Cancel/Collect: Job::done
  std::deque<std::shared_ptr<Job>> queue_;
  std::unordered_map<SnapshotId, std::shared_ptr<Job>> jobs_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::mutex plan_mu_;  // serializes workers on the private cursor
  SptCursor cursor_;

  std::mutex track_mu_;  // loaded_, claims_, hits_
  /// Pages a job loaded ahead that no demand read has consumed yet.
  std::unordered_set<uint64_t> loaded_;
  /// Pages whose fetch a worker has in flight, each with whether a demand
  /// read was served the page meanwhile. A claim turns into a hit or a
  /// loaded_ entry only when the fetch loaded the page, so no read is
  /// credited for a page the pipeline did not issue (hits + wasted <=
  /// issued).
  std::unordered_map<uint64_t, bool> claims_;
  int64_t hits_ = 0;
};

}  // namespace rql::retro

#endif  // RQL_RETRO_PREFETCH_SCHEDULER_H_
