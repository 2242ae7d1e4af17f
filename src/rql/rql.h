#ifndef RQL_RQL_RQL_H_
#define RQL_RQL_RQL_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "retro/metrics.h"
#include "retro/snapshot_store.h"
#include "rql/aggregates.h"
#include "rql/memo_table.h"
#include "rql/trace.h"
#include "sql/database.h"

namespace rql {

namespace sql {
class SharedScanCache;  // sql/shared_scan_cache.h
}

/// Cost breakdown of one RQL iteration (one Qq execution on one snapshot):
/// measured time per phase (SPT build, query evaluation, transient index
/// creation, and the mechanism-specific "RQL UDF" work on the result
/// table) plus page counts. The figure benches derive the paper's device
/// times (Figures 8-13's I/O bar) from the counts (bench/bench_common.h).
struct RqlIterationStats {
  retro::SnapshotId snapshot = retro::kNoSnapshot;
  int64_t spt_build_us = 0;   // Maplog scan CPU
  int64_t query_eval_us = 0;  // Qq execution proper
  int64_t index_create_us = 0;  // transient covering index (Fig. 9)
  int64_t udf_us = 0;         // result collation / aggregation work
  int64_t pagelog_pages = 0;
  int64_t db_pages = 0;       // pages shared with the current state
  int64_t cache_hits = 0;
  int64_t qq_rows = 0;
  // Result-table operation counts (Fig. 12/13: probes vs. inserts/updates).
  int64_t result_probes = 0;
  int64_t result_inserts = 0;
  int64_t result_updates = 0;
  // Iteration-setup amortization counters (all zero at paper-faithful
  // defaults; see RqlProfile::kFast).
  int64_t maplog_pages = 0;        // Maplog pages scanned for the SPT build
  int64_t spt_delta_entries = 0;   // log entries covered by an SPT advance
  int64_t plan_cache_hits = 0;     // 1 when Qq ran from the cached plan
  /// Archive reads this iteration coalesced onto another worker's
  /// in-flight fetch of the same page (always 0 in sequential runs).
  int64_t coalesced_loads = 0;
  // COW page-sharing exploitation counters (zero at paper-faithful
  // defaults; see RqlOptions::shared_scan_cache / memo).
  /// Scan-path pages served from the attached decoded-page cache: the
  /// page version (Pagelog offset) was already fetched and tuple-decoded
  /// for an earlier snapshot of this run, or for any other run sharing
  /// the cache.
  int64_t shared_page_hits = 0;
  /// Scan-path pages the cache could not serve (versioned pages that had
  /// to be fetched and decoded). hits / (hits + misses) is the decode
  /// reuse ratio of the iteration.
  int64_t scan_cache_misses = 0;
  /// Subset of shared_page_hits served by blocking on another run's (or
  /// parallel worker's) in-flight decode of the same page version
  /// (SharedScanCache single-flight).
  int64_t coalesced_decodes = 0;
  /// Size of the Maplog delta (pages whose mapping may differ from the
  /// previous snapshot in the set) examined by the memo's delta fast path.
  int64_t delta_pages_scanned = 0;
  /// True when Qq was not executed because the delta missed the read set
  /// of the predecessor (the iteration the run last executed or
  /// memo-replayed), whose rows were replayed instead.
  bool skipped = false;
  // Batch-execution counters (RqlProfile::kFast; zero under
  // kPaperFaithful, zero for skipped/replayed iterations, and zero when
  // Qq's plan fell back to the row path entirely).
  /// Page-sized RowBatches the vectorized scan served to Qq.
  int64_t batches_scanned = 0;
  /// Rows those batches carried (pre-filter).
  int64_t batch_rows = 0;
  /// (row, expression) evaluations routed through scalar fallback because
  /// the expression is not vectorizable.
  int64_t batch_fallback_rows = 0;
  // Cross-run memoization counters (RqlOptions::memo; all zero at
  // paper-faithful defaults).
  /// 1 when this iteration was answered by replaying the memo entry
  /// registered for its snapshot (or, in a kept run, a validated
  /// recorded read set).
  int64_t memo_hits = 0;
  /// 1 when a memoized run executed Qq for this iteration: neither a
  /// memo entry nor the delta fast path could serve it.
  int64_t memo_misses = 0;
  /// Entries the publish evicted to keep the memo under its byte bound.
  int64_t memo_evictions = 0;

  int64_t TotalUs() const {
    return spt_build_us + query_eval_us + index_create_us + udf_us;
  }
};

/// Aggregate statistics for one RQL query run.
struct RqlRunStats {
  std::vector<RqlIterationStats> iterations;
  /// Times the engine lexed/parsed/planned Qq during the run: one per
  /// executed iteration under RqlProfile::kPaperFaithful; under kFast one
  /// per run, or one per parallel worker that executed an iteration.
  int64_t qq_parse_count = 0;
  /// Parallel runs: every iteration still reports its own store counters
  /// (SPT build, page counts), read from the views and cursor of the
  /// worker that answered it, exactly as a sequential iteration does.
  /// `parallel_wall_us` is the elapsed time of the concurrent phase.
  bool parallel = false;
  int64_t parallel_wall_us = 0;
  /// Wall time workers spent blocked inside the snapshot store during the
  /// concurrent phase: reader-lock acquisition plus waiting on coalesced
  /// archive loads. Summed over the workers' iterations, so it can exceed
  /// parallel_wall_us; a value approaching workers x parallel_wall_us
  /// means the run serialized on the store. 0 in sequential runs.
  int64_t parallel_lock_wait_us = 0;
  /// Archive reads that coalesced onto a concurrent worker's in-flight
  /// fetch of the same shared pre-state page (single-flight), summed over
  /// the iterations of a parallel run (0 in sequential runs). Nonzero
  /// values prove the paper's page-sharing effect (Section 5.1) survives
  /// parallel evaluation: each shared page is fetched once per run, not
  /// once per racing worker.
  int64_t coalesced_loads = 0;
  /// Transient Pagelog read failures absorbed by the bounded-retry policy
  /// (RqlOptions::archive_read_retries) during this run.
  int64_t archive_read_retries = 0;
  /// Iterations answered by the memo's delta fast path, replaying the
  /// predecessor's result instead of executing Qq (RqlOptions::memo).
  int64_t iterations_skipped = 0;
  /// Run total of decoded-page cache hits (RqlOptions::shared_scan_cache).
  /// Hits are attributed from per-execution counters
  /// (ExecStats::scan_cache), so the total is exact for this run even when
  /// the cache is shared by concurrent runs or parallel workers.
  int64_t shared_page_hits = 0;
  /// Run total of scan-cache misses (versioned pages decoded).
  int64_t scan_cache_misses = 0;
  /// Run total of hits served by waiting on another run's in-flight
  /// decode (SharedScanCache single-flight).
  int64_t coalesced_decodes = 0;
  /// True when the run kept the result table the engine's previous run
  /// left: the same spec, table and snapshot list, an untouched metadata
  /// database and every recorded read set still valid (RqlOptions::memo).
  /// Its iterations are memo hits that folded nothing.
  bool result_reused = false;
  /// True when the run took its snapshot list from the engine's earlier
  /// evaluation of the same Qs text instead of querying the metadata
  /// database: Qs is a single SELECT calling only built-in functions, and
  /// nothing has written the metadata database since except the engine's
  /// own runs into tables Qs does not name (RqlOptions::memo).
  bool qs_reused = false;

  int64_t TotalUs() const {
    if (parallel) {
      // The workers' iterations overlap in time, so summing their phases
      // would count the concurrent interval several times. The honest
      // total is wall-derived: the concurrent phase plus the sequential
      // result replay (per-iteration UDF work).
      int64_t total = parallel_wall_us;
      for (const RqlIterationStats& it : iterations) total += it.udf_us;
      return total;
    }
    int64_t total = 0;
    for (const RqlIterationStats& it : iterations) total += it.TotalUs();
    return total;
  }
  int64_t PagelogPages() const {
    int64_t total = 0;
    for (const RqlIterationStats& it : iterations) total += it.pagelog_pages;
    return total;
  }
};

/// A (column, aggregate-function) pair for Aggregate Data In Table.
struct ColFuncPair {
  std::string column;
  RqlAggFunc func = RqlAggFunc::kMax;
};

/// How AggregateDataInTable combines records with the existing result
/// table. The paper's implementation probes an index on the grouping
/// columns per record; it reports having "also experimented with [a]
/// sort-merge based algorithm that turned out to be costlier" — both are
/// provided so the claim is reproducible (bench_ablation_aggtable).
enum class AggTableStrategy {
  /// Per-record index probe + insert/update (the paper's choice).
  /// RqlProfile::kFast probes an in-memory directory instead.
  kIndexProbe,
  /// Per-iteration: sort the Qq batch by grouping columns and merge it
  /// with the (sorted) result table, rewriting the table.
  kSortMerge,
};

/// The execution pipeline of a run. Both profiles produce byte-identical
/// result tables; they differ in how much per-iteration work they repeat.
enum class RqlProfile {
  /// The paper's loop, as its figures measure it: every iteration builds
  /// its SPT from a full Maplog suffix scan, lexes/parses/plans the
  /// textually rewritten Qq (InjectAsOf), and evaluates it row at a time.
  /// The figure benches and the embedded oracles select it.
  kPaperFaithful,
  /// Every iteration-setup and evaluation amortization a run can use:
  ///   * incremental SPT — a run opens its snapshots through a private
  ///     retro::SnapshotSet (one per parallel worker), deriving SPT(s_j)
  ///     from the cursor's previous SPT(s_i) over the Maplog delta when ids
  ///     ascend (counted in RqlIterationStats::spt_delta_entries).
  ///   * plan reuse — a run (or each parallel worker) lexes/parses/plans Qq
  ///     once and re-points the prepared plan at each snapshot through the
  ///     bindable AS OF parameter (RqlRunStats::qq_parse_count,
  ///     RqlIterationStats::plan_cache_hits). Qq the prepared path cannot
  ///     serve (a multi-statement script) falls back to the textual
  ///     rewrite for the rest of the run.
  ///   * vectorized Qq — eligible sequential scans decode each pinned page
  ///     into a RowBatch once and push it through vectorized predicate
  ///     evaluation and aggregate folds; plans the batch path cannot serve
  ///     (joins, index access) keep the row path. Borrows the decoded
  ///     pages of shared_scan_cache zero-copy. Counted in
  ///     RqlIterationStats::batches_scanned / batch_rows /
  ///     batch_fallback_rows and the "rql.batch_size" histogram.
  ///   * in-memory result fold — AggregateDataInTable (index-probe
  ///     strategy) looks each Qq row up in a run-scoped directory of the
  ///     result table's rows, keyed by the grouping columns under
  ///     sql::CompareRows, instead of seeking the `<table>_rql_idx`
  ///     B-tree and decoding the heap record it points at. The directory
  ///     is filled from the rids of the fold's own writes, so every heap
  ///     write, the index and the result_probes / result_inserts /
  ///     result_updates counters stay as under kPaperFaithful; it costs
  ///     one in-memory copy of the result table. A key CompareRows cannot
  ///     order strictly (a REAL NaN, or a REAL of magnitude 2^53 or more)
  ///     hands the rest of the run back to the index probe.
  ///     CollateDataIntoIntervals keeps the index probe.
  kFast,
};

/// "paper_faithful" / "fast".
const char* RqlProfileName(RqlProfile profile);

/// A run never clears the store's snapshot page cache, which it does not
/// own: a caller measuring a cold start (the paper's Section 5 protocol)
/// calls SnapshotStore::ClearSnapshotCache() before the run.
struct RqlOptions {
  /// Workers for parallel Qq evaluation (the paper's Section 7 future
  /// work). With N > 1, CollateData and AggregateDataInVariable answer N
  /// snapshots concurrently and fold the results sequentially in Qs order,
  /// so semantics are unchanged. Each worker runs the sequential iteration
  /// body (memo replay, prepared or rewritten Qq, current_snapshot()) on
  /// its own attached handle of the data database's store, with its own
  /// snapshot-set cursor; the engine creates the handles on first use and
  /// keeps them. Concurrent misses on a shared archive page coalesce into
  /// one fetch. Mechanisms whose result processing is order-dependent
  /// (AggregateDataInTable, CollateDataIntoIntervals), and a Qq that is
  /// not a single SELECT, always run sequentially. Worker stall time and
  /// coalesced fetches are reported in RqlRunStats::parallel_lock_wait_us
  /// / coalesced_loads.
  int parallel_workers = 1;
  AggTableStrategy agg_table_strategy = AggTableStrategy::kIndexProbe;

  /// Which pipeline the run executes (see RqlProfile). kPaperFaithful, the
  /// default, pays every iteration's setup from scratch and evaluates Qq
  /// row at a time, as the paper measures; kFast amortizes both.
  RqlProfile profile = RqlProfile::kPaperFaithful;

  // --- COW page-sharing exploitation (default off: the paper-faithful
  // --- baseline re-fetches and re-decodes every snapshot from scratch) ----
  /// The memo the run consults and publishes into; a run memoizes exactly
  /// when this is non-null. Memoized runs replay iterations whose result
  /// is provably known instead of executing Qq. Every executed iteration
  /// records the page versions its Qq read and buffers its rows as a
  /// retro::MemoEntry. Every iteration then tries, in order: (a) the
  /// entry registered for (canonicalized query/mechanism fingerprint,
  /// snapshot) is replayed (memo_hits) if the snapshot is still readable;
  /// a registration is a proof (retro::MemoTable::Probe), so the hit
  /// neither moves the run's snapshot-set cursor nor looks up a page;
  /// (b) on a miss the cursor steps to the snapshot — from the last
  /// answered snapshot, seeking there first after hits — and when Qq does
  /// not use current_snapshot() and the step's Maplog delta
  /// (SptCursor::last_delta) misses the predecessor entry's read set, the
  /// predecessor's rows are replayed (counted in RqlIterationStats::skipped
  /// / RqlRunStats::iterations_skipped) and published for the snapshot
  /// too; (c) otherwise Qq executes (memo_misses) and its entry is
  /// published for later runs and other engines (memo_evictions). A
  /// parallel worker diffs against its own previous snapshot, and the
  /// coordinator publishes in Qs order after the workers finish. On a
  /// memoized run, iterations = memo_misses + memo_hits +
  /// iterations_skipped.
  /// Results are byte-identical to execution (the mechanism fold re-runs
  /// on the replayed rows). Traced as kIterationSkip / kMemoHit.
  ///
  /// A memoized run that repeats the engine's last successful one (same
  /// mechanism and spec, result table and ordered snapshot list, with no
  /// write to the metadata database since) first revalidates that run's
  /// per-iteration read sets; when all of them hold, the result table
  /// already holds this run's output and the run keeps it: no DROP, no
  /// fold, every iteration a memo hit (RqlRunStats::result_reused).
  ///
  /// Owned by the caller; shareable by any number of engines (publishes
  /// are first-publish-wins), which is how the server serves one memo to
  /// every session. A fresh retro::MemoTable given to one run is a
  /// run-scoped memo. The table is in memory only; it must live and die
  /// with the data database it memoizes (see retro::MemoTable).
  retro::MemoTable* memo = nullptr;
  /// Decoded-page cache the run's scans go through: table pages are keyed
  /// by their physical version (the Pagelog offset the SPT resolves them
  /// to) — immutable and globally unique within a store — so a version
  /// shared by N snapshots of the set is fetched and tuple-decoded once
  /// instead of N times. Shared by every run (and engine) attached to the
  /// same SnapshotStore, N overlapping runs decode each unique version
  /// once, with concurrent racers (and parallel workers) coalescing onto a
  /// single in-flight decode (single-flight, the BufferPool coalesced-load
  /// discipline one layer up); an unbounded instance (max_bytes = 0)
  /// created per run, or Clear()ed between runs, is a run-scoped cache.
  /// Owned by the caller; must outlive every engine using it and be used
  /// with one store only. Results are byte-identical to running with no
  /// cache. Enables SPT-build sharing on the store
  /// (SnapshotStore::set_share_spt_builds), which stays on after the run
  /// because concurrent runs rely on it. Counted in
  /// RqlIterationStats::shared_page_hits / scan_cache_misses /
  /// coalesced_decodes, surfaced as rql.scan_cache.* metrics, and traced
  /// in kScanCache events. Invalidated conservatively by
  /// TruncateHistory (entries a live run still holds stay alive through
  /// their shared_ptr).
  sql::SharedScanCache* shared_scan_cache = nullptr;

  /// Cooperative cancellation: when non-null, the engine polls the flag at
  /// iteration boundaries — sequential and UDF-form runs at the head of
  /// every iteration, parallel workers after claiming each snapshot — and
  /// aborts the run with Status::Aborted("run cancelled") once it is set.
  /// The abort takes the normal failed-run path (the partial result table
  /// is dropped, pins and caches are released), so the store stays fully
  /// reusable; nothing mid-page is interrupted. The flag's owner (e.g. the
  /// server's run scheduler) must keep it alive for the whole run.
  const std::atomic<bool>* cancel = nullptr;
  /// Identifiers stamped into the run's trace ring (RqlTrace::session_id /
  /// run_id) so a shared observability pipeline can attribute events to
  /// the daemon session and scheduled run that produced them. 0 = unset
  /// (embedded single-process runs).
  uint64_t session_id = 0;
  uint64_t run_id = 0;

  /// Bounded retry budget for transient Pagelog archive read failures
  /// during a run: each failed read is re-issued up to this many times
  /// before the iteration aborts. The budget belongs to the run's readers
  /// (sql::Database::set_archive_read_retries on each handle it executes
  /// on), so runs on one store keep their own budgets. Counted in
  /// RqlRunStats::archive_read_retries. Default 0: fail fast, the
  /// paper-faithful assumption of reliable media.
  int archive_read_retries = 0;

  // --- observability (off by default: traced and untraced runs execute
  // --- the identical code path, differing only in event recording) --------
  /// Record structured per-iteration trace events (see rql/trace.h) into a
  /// bounded ring readable via RqlEngine::last_run_trace() and dumpable as
  /// JSON (tools/rql_report). Off by default; turning it on changes no
  /// behavior and no counter values.
  bool trace = false;
  /// Ring capacity in events; beyond it the oldest events are dropped
  /// (RqlTrace::dropped() counts them), so traced memory stays bounded.
  size_t trace_capacity = 4096;
  /// Registry receiving the run's counters (every legacy RqlRunStats field
  /// is published under "rql.*" when a run finishes, plus run/iteration
  /// latency histograms). nullptr uses MetricsRegistry::Default().
  retro::MetricsRegistry* metrics = nullptr;
};

/// The Retrospective Query Language engine (the paper's contribution).
///
/// RQL composes two SQL programs — Qs, selecting a set of snapshot ids from
/// the SnapIds table, and Qq, a query executed on every snapshot in that
/// set — with a combining mechanism:
///
///   * CollateData(Qs, Qq, T)                  — append every Qq result row
///     to T, tagged however Qq chooses (e.g. via current_snapshot()).
///   * AggregateDataInVariable(Qs, Qq, T, f)   — fold the single value Qq
///     yields per snapshot with the abelian-monoid aggregate f; store the
///     result in T.
///   * AggregateDataInTable(Qs, Qq, T, pairs)  — an across-time GROUP BY:
///     rows matching on the non-aggregated columns are combined with the
///     per-column aggregate functions.
///   * CollateDataIntoIntervals(Qs, Qq, T)     — compact consecutive
///     appearances of a record into [start_snapshot, end_snapshot]
///     lifetimes, the temporal-database representation.
///
/// Following the paper's architecture (Fig. 5), SnapIds and all result
/// tables live in a separate, non-snapshotable metadata database, while Qq
/// runs against the snapshotable application database.
class RqlEngine {
 public:
  /// `data_db` is the snapshotable application database; `meta_db` holds
  /// SnapIds and result tables. They must be distinct.
  RqlEngine(sql::Database* data_db, sql::Database* meta_db,
            RqlOptions options = RqlOptions());
  ~RqlEngine();  // out of line: MechanismState is an incomplete type here

  /// Creates the SnapIds table if missing.
  Status EnsureSnapIds();

  /// Declares a snapshot (committing the open transaction if any with
  /// COMMIT WITH SNAPSHOT, else an empty declaring transaction) and
  /// records it in SnapIds with `timestamp` and `label`.
  Result<retro::SnapshotId> CommitWithSnapshot(const std::string& timestamp,
                                               const std::string& label = "");

  /// Retention: drops snapshots with id < `keep_from` from the snapshot
  /// store (compacting its archive) and removes their SnapIds rows, so Qs
  /// queries can no longer select them.
  Status TruncateHistory(retro::SnapshotId keep_from);

  // --- the four mechanisms (programmatic form) ---------------------------
  Status CollateData(const std::string& qs, const std::string& qq,
                     const std::string& table);
  Status AggregateDataInVariable(const std::string& qs, const std::string& qq,
                                 const std::string& table,
                                 const std::string& agg_func);
  Status AggregateDataInTable(const std::string& qs, const std::string& qq,
                              const std::string& table,
                              const std::vector<ColFuncPair>& pairs);
  /// Overload parsing the paper's textual pair syntax, e.g.
  /// "(l_time,min)" or "(MAX,cn):(MAX,av)" (both element orders accepted).
  Status AggregateDataInTable(const std::string& qs, const std::string& qq,
                              const std::string& table,
                              const std::string& pairs);
  Status CollateDataIntoIntervals(const std::string& qs,
                                  const std::string& qq,
                                  const std::string& table);

  static Result<std::vector<ColFuncPair>> ParseColFuncPairs(
      const std::string& text);

  // --- the UDF-embedded form ----------------------------------------------
  /// Registers CollateData / AggregateDataInVariable / AggregateDataInTable
  /// / CollateDataIntoIntervals as scalar UDFs on the metadata database, so
  /// the paper's invocation style works verbatim:
  ///
  ///   SELECT CollateData(snap_id, 'SELECT ... FROM ...', 'Result')
  ///   FROM SnapIds WHERE ...;
  ///
  /// Each call runs one iteration; state is keyed by the result table name.
  /// Call FinishUdfRuns() after the driving SELECT completes.
  Status RegisterUdfs();

  /// Finalizes and clears all in-progress UDF-form runs. When one of
  /// their iterations failed, the runs are discarded instead (result
  /// tables this run created are dropped) and the first failure is
  /// returned.
  Status FinishUdfRuns();

  /// Rewrites Qq for snapshot `snap` by injecting "AS OF <snap>" after the
  /// first top-level SELECT keyword (the paper's rewrite, Section 3).
  static std::string InjectAsOf(const std::string& qq,
                                retro::SnapshotId snap);

  /// Replaces current_snapshot() calls — outside comments, '...' string
  /// literals and "..." quoted identifiers — with the literal snapshot id:
  /// the textual half of the paper's rewrite. Runs evaluate
  /// current_snapshot() as a function on their own handle; the engine uses
  /// this only to detect whether Qq calls it. Occurrences inside quotes
  /// are plain text, not calls, and pass through verbatim.
  static std::string ReplaceCurrentSnapshot(const std::string& qq,
                                            retro::SnapshotId snap);

  const RqlRunStats& last_run_stats() const { return stats_; }

  /// Trace of the last run executed with RqlOptions::trace on (empty ring
  /// otherwise). Valid until the next traced run starts.
  const RqlTrace& last_run_trace() const { return trace_; }

  /// The registry runs publish into: options().metrics, or the process
  /// default when unset.
  retro::MetricsRegistry* metrics() const {
    return options_.metrics != nullptr ? options_.metrics
                                       : retro::MetricsRegistry::Default();
  }

  sql::Database* data_db() { return data_db_; }
  sql::Database* meta_db() { return meta_db_; }
  const RqlOptions& options() const { return options_; }
  RqlOptions* mutable_options() { return &options_; }

 private:
  class MechanismState;
  /// Where one driver thread answers iterations (rql.cc).
  struct IterationContext;
  /// One answered iteration, before the fold (rql.cc).
  struct Answer;
  class CollateState;
  class AggVariableState;
  class AggTableState;
  class IntervalState;

  /// The setup and teardown every run performs (rql.cc).
  class RunScope;
  /// What the last successful memoized run left in its result table
  /// (rql.cc).
  struct ResultRecord;
  /// The snapshot list a memoized evaluation of one reusable Qs text
  /// returned, and the lower-cased identifiers of that text: a conservative
  /// superset of the tables Qs reads.
  struct QsRecord {
    std::vector<retro::SnapshotId> snapshots;
    std::vector<std::string> names;  // sorted, unique
  };
  /// The most Qs records an engine keeps, at a few hundred bytes each:
  /// room for a session that sweeps a couple of hundred distinct windows.
  static constexpr size_t kMaxQsRecords = 256;
  /// The registry handles PublishRunMetrics adds to (rql.cc).
  struct RunMetrics;

  /// Runs a full mechanism: evaluates Qs on the metadata database, then
  /// iterates the state over every snapshot id.
  Status RunMechanism(const std::string& qs, MechanismState* state);

  /// Qs's snapshot list. With a memo, a reusable Qs (QsIsReusable) that
  /// has a record is answered from it, provided the metadata database has
  /// had no write since the record was made other than the engine's own
  /// netted runs (NetOwnWrites), none of which wrote a table Qs names.
  /// Otherwise Qs is evaluated on the metadata database, and, with a memo
  /// and a reusable Qs, recorded.
  Status EvaluateQs(const std::string& qs,
                    std::vector<retro::SnapshotId>* out);

  /// Called after `state`'s run succeeded, when the metadata mutations
  /// since `before` (read just before the run dropped its result table)
  /// are provably the run's own writes to its result table and index.
  /// Drops every Qs record that names either, then adds the span to
  /// own_mutations_, so the remaining records keep matching.
  void NetOwnWrites(const MechanismState& state, uint64_t before);

  /// True when `state`'s run (`spec`, its ResultSpec) over `snaps`
  /// repeats the recorded run and every recorded read set still
  /// validates, so the result table already holds the run's output; `out`
  /// then holds one memo-hit answer per snapshot. False, with nothing
  /// written, on any mismatch or a cancellation.
  bool ReuseRecordedResult(MechanismState* state, const std::string& spec,
                           const std::vector<retro::SnapshotId>& snaps,
                           std::vector<Answer>* out);

  /// Parallel variant: workers answer snapshots concurrently, each on its
  /// own attached handle; the answers are recorded in Qs order.
  Status RunMechanismParallel(const std::vector<retro::SnapshotId>& snaps,
                              MechanismState* state, RunScope* run);

  /// One "loop body" of the sequential and UDF-form drivers:
  /// AnswerIteration, then RecordIteration.
  Status RunIteration(IterationContext* ctx, MechanismState* state,
                      retro::SnapshotId snap);

  /// The iteration body every driver runs on `ctx`: a registered memo
  /// entry or the memo's delta fast path (ReplayIteration), else Qq
  /// executed on `ctx`'s handle with the read recorder armed. The
  /// sequential and UDF-form contexts stream executed rows into the fold;
  /// a parallel worker buffers them in `out` for RecordIteration. `index`
  /// is the iteration's position in the run (the trace's kIterationBegin);
  /// the store counters in `out` are those of `ctx`'s own readers.
  Status AnswerIteration(IterationContext* ctx, MechanismState* state,
                         retro::SnapshotId snap, size_t index, Answer* out);

  /// Folds `answer`'s rows unless they already streamed into the fold
  /// (OnRow for every row, then OnIterationEnd, inside one metadata
  /// transaction committed on success and rolled back on failure),
  /// publishes its memo entry and appends the iteration to the run's
  /// stats. Runs on the coordinating thread, in Qs order.
  Status RecordIteration(MechanismState* state, retro::SnapshotId snap,
                         Answer* answer);

  /// The replay half of a memoized iteration: probes the memo for `snap`
  /// and replays a hit without moving `ctx`'s cursor; on a miss, steps
  /// the cursor to `snap` and tries the delta fast path against `ctx`'s
  /// predecessor (see RqlOptions::memo). Returns true with the replayed
  /// rows in `out`, or false when Qq must execute (the cursor then sits at
  /// `snap`).
  Result<bool> ReplayIteration(IterationContext* ctx, MechanismState* state,
                               retro::SnapshotId snap, Answer* out);

  /// True when the caller-owned cancellation flag (RqlOptions::cancel) has
  /// been raised; polled at iteration boundaries.
  bool CancelRequested() const {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  }

  /// Adds every RqlRunStats counter of `stats_` to the registry's "rql.*"
  /// counters and observes the run/iteration latency histograms — called
  /// exactly once per run (mechanism and UDF forms), so a registry delta
  /// taken around a run equals the legacy struct.
  void PublishRunMetrics();

  sql::Database* data_db_;
  sql::Database* meta_db_;
  RqlOptions options_;
  RqlRunStats stats_;
  /// Per-run structured event ring (RqlOptions::trace); `trace_on_`
  /// latches the flag for the current run so emission sites stay cheap.
  RqlTrace trace_;
  bool trace_on_ = false;
  // UDF-form run: its scope is opened by the first UDF call and closed by
  // FinishUdfRuns; states, each with its own context, are keyed by result
  // table name.
  struct UdfState {
    std::unique_ptr<MechanismState> state;
    IterationContext* ctx = nullptr;  // owned by udf_run_
  };
  std::unique_ptr<RunScope> udf_run_;
  std::unordered_map<std::string, UdfState> udf_states_;
  /// Parallel workers' attached handles on the data database's store,
  /// created by the first parallel run that needs them and reused.
  std::vector<std::unique_ptr<sql::Database>> worker_dbs_;
  /// The last successful memoized mechanism run; null before one, and
  /// from the moment a run drops its result table until it succeeds.
  std::unique_ptr<ResultRecord> last_result_;
  /// Memoized Qs evaluations by Qs text, at most kMaxQsRecords, all made
  /// at net count qs_records_net_: the metadata store's mutations() minus
  /// own_mutations_. A record made at an older net count can never match
  /// again, since the net count only grows.
  std::unordered_map<std::string, QsRecord> qs_records_;
  uint64_t qs_records_net_ = 0;
  /// Metadata mutations made by the engine's own netted runs.
  uint64_t own_mutations_ = 0;
  /// The handles of metrics(), resolved by name at the first publish and
  /// again only when the registry changes.
  std::unique_ptr<RunMetrics> run_metrics_;
};

}  // namespace rql

#endif  // RQL_RQL_RQL_H_
