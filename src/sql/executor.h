#ifndef RQL_SQL_EXECUTOR_H_
#define RQL_SQL_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "retro/iteration_stats.h"
#include "retro/maplog.h"
#include "retro/metrics.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/expr.h"
#include "sql/functions.h"
#include "sql/row_batch.h"
#include "sql/shared_scan_cache.h"

namespace rql::sql {

/// Per-statement execution counters. `index_build_us` isolates the cost of
/// transient join indexes (SQLite's "automatic covering index"), which the
/// paper's Figure 9 reports as a separate bar.
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t rows_output = 0;
  int64_t index_build_us = 0;
  bool used_transient_index = false;
  bool used_native_index = false;
  // Batch-execution counters (zero when the row path ran). A fallback row
  // is one (row, expression) evaluation the batch path had to route
  // through scalar EvalExpr because the expression is not vectorizable.
  int64_t batches_scanned = 0;
  int64_t batch_rows = 0;
  int64_t batch_fallback_rows = 0;
  // Scan-cache traffic attributed to THIS execution. Exact even when the
  // cache is shared across runs or parallel workers (the cache's own
  // counters are global), so the engine credits hits to the iteration
  // that performed them.
  ScanCacheCounters scan_cache;
  // Store counters of the snapshot views THIS execution opened (SPT build,
  // archive and db-shared reads, lock waits), exact for the same reason.
  retro::IterationStats store;

  void Reset() { *this = ExecStats{}; }
};

/// Planning decisions carried across executions of the same prepared
/// statement (the RQL iteration-setup amortization path): the join order
/// chosen by the reorder heuristic and the transient covering-index specs
/// discovered during execution. Re-running the statement then skips the
/// re-derivation; only the per-execution index *build* repeats, since the
/// data under an AS OF binding changes every iteration.
struct PlanCache {
  /// The statement the cached decisions belong to; claimed on first use so
  /// subqueries (different statement, same context) never reuse them.
  const void* owner = nullptr;
  bool has_join_order = false;
  std::vector<size_t> join_order;  // FROM positions in execution order
  /// Join levels known to need a transient index (table name + join column
  /// recorded for sanity), so later executions build it up front instead of
  /// re-discovering the need at first probe.
  struct TransientSpec {
    size_t level = 0;
    std::string table;
    int inner_key_column = -1;
  };
  std::vector<TransientSpec> transient_specs;
  int64_t hits = 0;  // executions that reused a cached decision
};

/// Everything a SELECT needs to run: a page reader (current state or a
/// snapshot view), the catalog as of the same state, functions, stats.
struct ExecContext {
  storage::PageReader* reader = nullptr;
  const CatalogData* catalog = nullptr;
  const FunctionRegistry* functions = nullptr;
  ExecStats* stats = nullptr;  // optional
  /// Snapshot the reader exposes (kNoSnapshot = current state); purely
  /// informational for operators that care which AS OF binding is active.
  retro::SnapshotId as_of = retro::kNoSnapshot;
  PlanCache* plan_cache = nullptr;  // optional
  /// Optional decoded-page cache. Sequential scans and transient-index
  /// builds consult it for pages the reader versions (archived snapshot
  /// pages); readers without stable page versions — the current state —
  /// leave it untouched.
  SharedScanCache* scan_cache = nullptr;
  /// Batch-at-a-time execution (RqlProfile::kFast): eligible
  /// sequential scans run page-sized RowBatches through vectorized
  /// filters and aggregate folds instead of the row-at-a-time spine.
  /// Plans the batch path cannot serve (joins, index scans) silently use
  /// the row path; results are byte-identical either way.
  bool batch_execution = false;
  /// Optional histogram observing the row count of every batch scanned.
  retro::MetricsRegistry::Histogram* batch_size_hist = nullptr;
};

using RowSink = std::function<Status(const Row&)>;

/// Executes SELECT statements: binds names, plans access paths (seq scan,
/// native-index lookup, transient hash index for joins), then streams
/// result rows. Instantiate per statement via Prepare.
class SelectExecutor : public SubqueryRunner {
 public:
  static Result<std::unique_ptr<SelectExecutor>> Prepare(
      const SelectStmt* stmt, const ExecContext& ctx);

  /// Output column names, available after Prepare.
  const std::vector<std::string>& columns() const { return columns_; }

  /// Streams result rows into `sink`. Single-shot.
  Status Run(const RowSink& sink);

  /// One human-readable line per plan step (EXPLAIN output), in execution
  /// order: access paths first, then aggregation/output operators.
  std::vector<std::string> DescribePlan() const;

  /// SubqueryRunner: executes (and caches) an uncorrelated subquery.
  Result<const std::vector<Row>*> RunSubquery(const Expr& expr) override;

 private:
  SelectExecutor(const SelectStmt* stmt, const ExecContext& ctx)
      : stmt_(stmt), ctx_(ctx) {}

  struct TableSource {
    const TableInfo* table = nullptr;
    std::string alias;
    // Join access path (levels > 0).
    const Expr* key_expr = nullptr;      // outer-side expression
    int inner_key_column = -1;           // column within this table's row
    const IndexInfo* native_index = nullptr;
    // Level-0 index range scan: constant bounds on native_index's first
    // column, harvested from WHERE comparisons (which stay in the filter,
    // so the bounds only narrow the scan — they never decide membership).
    const Expr* range_lower = nullptr;   // first key >= eval(range_lower)
    const Expr* range_upper = nullptr;   // stop once key > eval(range_upper)
    // Conjuncts evaluable once this level's columns are bound (predicate
    // pushdown); rows failing the filter never reach deeper join levels.
    ExprPtr filter;
    // Index-only ("covering") access: every referenced column of this
    // table is present in native_index, so rows are synthesized from index
    // keys without heap fetches — SQLite's covering-index behaviour.
    bool index_only = false;
    // Transient index built on demand for an unindexed join column: a real
    // B+-tree (plus row heap) in a private in-memory page store, modelling
    // SQLite's "automatic covering index" and its construction cost.
    std::unique_ptr<storage::InMemoryEnv> transient_env;
    std::unique_ptr<storage::PageStore> transient_store;
    storage::PageId transient_index_root = storage::kInvalidPageId;
    storage::PageId transient_heap_root = storage::kInvalidPageId;
  };

  Status BindAll();
  Status PlanJoins(std::vector<ExprPtr>* conjuncts);
  void PlanIndexOnlyAccess();
  Status ScanSource(const RowSink& sink);
  Status JoinLevel(size_t level, Row* current, const RowSink& sink);
  /// True when this plan is a single-table plain sequential scan the
  /// batch path can serve (no join, no index access path).
  bool CanUseBatchScan() const;
  /// Narrows `batch->selection` to the rows where `pred` is true, via
  /// EvalBatch when `vectorized`, else scalar EvalExpr per row (counted
  /// as batch_fallback_rows).
  Status ApplyBatchFilter(const Expr* pred, bool vectorized, RowBatch* batch,
                          std::vector<Value>* scratch);
  /// Batched sequential scan of the single source: decodes pages into
  /// RowBatches, applies the pushed-down filter (and any residual WHERE)
  /// to each selection vector, and hands every batch with surviving rows
  /// to `consume`. Stops early once done_ is set.
  Status ScanBatched(const std::function<Status(RowBatch&)>& consume);
  Status BuildTransientIndex(TableSource* source);
  Status RunAggregation(const RowSink& sink);
  Status RunPlain(const RowSink& sink);
  Result<Row> ProjectRow(const EvalContext& ectx, Row* sort_key);
  Status Emit(Row row, Row sort_key, const RowSink& sink);
  Status Finish(const RowSink& sink);

  const SelectStmt* stmt_;
  ExecContext ctx_;
  PlanCache* plan_cache_ = nullptr;  // ctx_.plan_cache once claimed for stmt_
  BindScope scope_;
  std::vector<TableSource> sources_;
  std::vector<SelectItem> items_;          // star-expanded, bound
  std::vector<std::string> columns_;
  ExprPtr where_;                          // bound copy
  std::vector<ExprPtr> consumed_conjuncts_;  // keeps join key exprs alive
  std::vector<ExprPtr> group_by_;          // bound copies
  ExprPtr having_;
  std::vector<OrderItem> order_by_;        // bound copies
  bool aggregated_ = false;
  std::vector<Expr*> agg_nodes_;
  bool batch_scan_ = false;  // decided once per Run from CanUseBatchScan

  // Output staging (DISTINCT / ORDER BY / LIMIT).
  bool need_sort_ = false;
  bool done_ = false;  // LIMIT satisfied; scans stop early
  std::vector<std::pair<Row, Row>> staged_;  // (sort_key, row)
  std::unordered_set<std::string> distinct_seen_;
  int64_t emitted_ = 0;
  // Uncorrelated subqueries: materialized once per statement.
  std::unordered_map<const Expr*, std::vector<Row>> subquery_cache_;
  int subquery_depth_ = 0;
};

}  // namespace rql::sql

#endif  // RQL_SQL_EXECUTOR_H_
