#ifndef RQL_RQL_TRACE_H_
#define RQL_RQL_TRACE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "retro/maplog.h"  // retro::SnapshotId

namespace rql {

/// Event kinds recorded by RqlTrace. Per-event args[] meaning (unused
/// slots are zero):
///
///   kRunBegin        {snapshot_count, workers, flags_bits, 0, 0, 0}
///                    flags_bits: 1|2|32 = RqlProfile::kFast (bits of
///                    the retired incremental_spt, reuse_qq_plan and
///                    batch_execution flags it replaced; always set
///                    together) 4=retired (was batch_pagelog_reads,
///                    deleted; kept unassigned) 8=retired (was
///                    reuse_decoded_pages; never set, kept unassigned so
///                    older traces still decode)
///                    16=retired (was skip_unchanged_iterations, folded
///                    into the memo; kept unassigned)
///                    64=RqlOptions::memo set (the bit of the boolean it
///                    replaced) 128=shared_scan_cache 256=retired (was
///                    async_prefetch, deleted; kept unassigned)
///   kRunEnd          {iterations, iterations_skipped, total_us, ok, 0, 0}
///   kIterationBegin  {index_in_run, 0, 0, 0, 0, 0}
///   kIterationEnd    {io_us, spt_build_us, query_eval_us, index_create_us,
///                     udf_us, qq_rows}  — the Fig. 8 phase attribution;
///                    the five *_us slots mirror RqlIterationStats::TotalUs.
///                    Every executed iteration emits begin, spt_build,
///                    archive_fetch, scan_cache (with a cache) and end from
///                    the thread that answered it, tagged with its worker;
///                    a parallel worker's udf_us is 0, since its rows fold
///                    later on the coordinating thread.
///   kSptBuild        {maplog_pages, spt_delta_entries, spt_cpu_us,
///                     incremental, 0, 0}  — incremental: 1 when the run
///                    opens snapshots through its snapshot set (kFast or
///                    a memo)
///   kArchiveFetch    {pagelog_pages, 0, cache_hits, db_pages,
///                     archive_read_retries, 0}  — slot 1 is retired
///                    (always 0) so positional readers stay aligned
///   kScanCache       {shared_page_hits, misses, coalesced_decodes, 0, 0, 0}
///                    — coalesced_decodes is the subset of hits served by
///                    waiting on another run's in-flight decode
///                    (shared_scan_cache single-flight)
///   kIterationSkip   {index_in_run, delta_pages_scanned, replayed_rows,
///                     udf_us, 0, 0}  — replay of a provably unchanged
///                    iteration (the memo's delta fast path)
///   kWorkerStall     {lock_wait_us, coalesced_loads, workers, 0, 0, 0}
///                    — emitted once per parallel run after the join
///   kMemoHit         {index_in_run, validated_pages, replayed_rows,
///                     udf_us, 0, 0}  — replay of a persistent memo entry
///                    whose page-version read set validated against the
///                    snapshot (RqlOptions::memo)
///   kPrefetch        retired: the background prefetch pipeline is
///                    deleted and nothing emits it; the value is kept so
///                    later kinds keep their numbers
enum class RqlTraceEventType : uint8_t {
  kRunBegin = 0,
  kRunEnd,
  kIterationBegin,
  kIterationEnd,
  kSptBuild,
  kArchiveFetch,
  kScanCache,
  kIterationSkip,
  kWorkerStall,
  kMemoHit,
  kPrefetch,
};

/// One fixed-size trace record. `t_us` is relative to the enclosing run's
/// start; `worker` is 0 for the coordinating thread and 1-based for
/// parallel workers; `snapshot` is kNoSnapshot for run-scoped events.
struct RqlTraceEvent {
  int64_t t_us = 0;
  retro::SnapshotId snapshot = retro::kNoSnapshot;
  RqlTraceEventType type = RqlTraceEventType::kRunBegin;
  uint16_t worker = 0;
  int64_t args[6] = {0, 0, 0, 0, 0, 0};
};

/// A bounded, mutex-guarded ring of RqlTraceEvents, filled by the engine
/// when `RqlOptions::trace` is on. Events are per-iteration summaries (not
/// per-page), so a traced run emits O(snapshots) events; once `capacity`
/// is reached the oldest events are dropped and `dropped()` counts them —
/// memory stays bounded no matter how long the run is. Emission is rare
/// enough (a handful per iteration) that one mutex keeps TSan-clean
/// ordering under parallel workers without measurable cost.
class RqlTrace {
 public:
  RqlTrace() = default;

  /// Copyable so callers can capture one run's trace before the next
  /// Restart clears it (rql_report keeps all four mechanism traces).
  RqlTrace(const RqlTrace& other);
  RqlTrace& operator=(const RqlTrace& other);

  /// Begins a new traced run: clears prior events, sets the capacity,
  /// re-anchors t=0 at `now_us`, and resets the session/run context to 0.
  void Restart(size_t capacity, int64_t now_us);

  /// Stamps the ring with the daemon session and scheduled-run identifiers
  /// of the run being traced (RqlOptions::session_id / run_id); 0 = an
  /// embedded run. Set by the engine right after Restart, so every ring
  /// carries the context of exactly the run it describes.
  void SetContext(uint64_t session_id, uint64_t run_id);
  uint64_t session_id() const;
  uint64_t run_id() const;

  /// Appends an event stamped with the clock read under the ring's lock,
  /// so events from parallel workers are in time order along the ring.
  void Emit(RqlTraceEventType type, retro::SnapshotId snapshot,
            std::initializer_list<int64_t> args, uint16_t worker = 0);

  /// Retained events, oldest first.
  std::vector<RqlTraceEvent> Events() const;
  /// Total events emitted since the last Restart (retained + dropped).
  int64_t emitted() const;
  /// Events evicted from the ring since the last Restart.
  int64_t dropped() const;
  size_t capacity() const;

  static const char* TypeName(RqlTraceEventType type);

 private:
  mutable std::mutex mu_;
  std::vector<RqlTraceEvent> ring_;
  size_t capacity_ = 0;
  uint64_t emitted_ = 0;  // ring head = emitted_ % capacity_
  int64_t t0_us_ = 0;
  uint64_t session_id_ = 0;
  uint64_t run_id_ = 0;
};

}  // namespace rql

#endif  // RQL_RQL_TRACE_H_
