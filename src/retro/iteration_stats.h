#ifndef RQL_RETRO_ITERATION_STATS_H_
#define RQL_RETRO_ITERATION_STATS_H_

#include <cstdint>

#include "retro/maplog.h"  // SptBuildStats

namespace rql::retro {

/// Simulated device costs used to convert page-fetch counts into time.
/// The paper's testbed keeps the current database memory-resident and the
/// Pagelog on SSD; we model that with a per-page charge for Pagelog and
/// Maplog reads and a zero charge for current-state reads. Benchmarks
/// report both the page counts and the derived times.
struct CostModel {
  int64_t pagelog_read_us = 100;     // one 4K random read from the archive
  int64_t maplog_page_read_us = 100; // one log page during an SPT scan
  int64_t db_read_us = 0;            // current state is memory-resident
};

/// Cost counters of one snapshot reader. Every SnapshotView counts the
/// reads and the SPT work it does into its own block, and SnapshotSet's
/// Advance counts into the block its caller passes; a reader belongs to
/// one thread, so the blocks take no lock, and readers sharing a store
/// never see each other's work. The RQL engine sums an iteration's blocks
/// into the per-iteration breakdown (I/O, SPT build) of Figures 8-13.
struct IterationStats {
  int64_t pagelog_page_reads = 0;  // snapshot-cache misses -> archive I/O
  int64_t snapshot_cache_hits = 0;
  int64_t db_page_reads = 0;       // snapshot pages shared with current db
  /// Maplog entries covered by incremental SPT advances inside a snapshot
  /// set (subset of spt.entries_scanned).
  int64_t spt_delta_entries = 0;
  /// Transient Pagelog read failures absorbed by the bounded-retry policy
  /// (set_archive_read_retries).
  int64_t archive_read_retries = 0;
  /// Snapshot-cache misses that found another reader already fetching the
  /// same archive page and waited for that load instead of issuing a
  /// duplicate one. A nonzero count in a parallel run proves the paper's
  /// page-sharing effect (Section 5.1) survives concurrency: a shared
  /// pre-state page is read once, not once per racing worker.
  int64_t coalesced_loads = 0;
  /// Wall time the reader spent blocked: acquiring the store's reader lock
  /// (writers hold it exclusively) plus waiting on coalesced archive loads.
  int64_t lock_wait_us = 0;
  SptBuildStats spt;

  void Add(const IterationStats& o) {
    pagelog_page_reads += o.pagelog_page_reads;
    snapshot_cache_hits += o.snapshot_cache_hits;
    db_page_reads += o.db_page_reads;
    spt_delta_entries += o.spt_delta_entries;
    archive_read_retries += o.archive_read_retries;
    coalesced_loads += o.coalesced_loads;
    lock_wait_us += o.lock_wait_us;
    spt.entries_scanned += o.spt.entries_scanned;
    spt.maplog_pages_read += o.spt.maplog_pages_read;
    spt.cpu_us += o.spt.cpu_us;
  }

  /// Simulated Pagelog I/O time.
  int64_t IoUs(const CostModel& cm) const {
    return pagelog_page_reads * cm.pagelog_read_us +
           db_page_reads * cm.db_read_us;
  }

  /// SPT construction time: measured CPU plus simulated Maplog I/O.
  int64_t SptUs(const CostModel& cm) const {
    return spt.cpu_us + spt.maplog_pages_read * cm.maplog_page_read_us;
  }
};

}  // namespace rql::retro

#endif  // RQL_RETRO_ITERATION_STATS_H_
