#ifndef RQL_SQL_DATABASE_H_
#define RQL_SQL_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "retro/snapshot_store.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/functions.h"

namespace rql::sql {

/// A fully materialized query result.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Row callback in the style of sqlite3_exec: invoked once per result row
/// with the column names. Returning a non-OK status aborts the query.
using QueryCallback =
    std::function<Status(const std::vector<std::string>& columns,
                         const Row& row)>;

struct DatabaseOptions {
  retro::SnapshotStoreOptions store;
};

/// Timing and counters for the last Exec/Query call.
struct DbExecStats {
  int64_t parse_us = 0;
  int64_t exec_us = 0;  // everything after parsing, incl. index builds
  ExecStats exec;
};

class Database;

/// A parsed statement with '?' placeholders, bindable and executable many
/// times (the sqlite3_prepare/bind/step idiom). Parameters are 1-based.
/// Not thread-safe; tied to the Database that prepared it.
class PreparedStatement {
 public:
  /// Binds parameter `index` (1-based) to `value`.
  Status BindValue(int index, Value value);

  /// Convenience binders.
  Status BindInt(int index, int64_t v) { return BindValue(index, Value(v)); }
  Status BindReal(int index, double v) { return BindValue(index, Value(v)); }
  Status BindText(int index, std::string v) {
    return BindValue(index, Value(std::move(v)));
  }

  /// Binds the snapshot the statement reads as of (the RQL Qq plan-reuse
  /// path): rebinds an "AS OF ?" placeholder when the statement has one,
  /// otherwise sets the SELECT's AS OF clause directly, so a plain Qq can
  /// be prepared once and pointed at each snapshot in turn. Fails unless
  /// the statement is a single SELECT.
  Status BindAsOf(retro::SnapshotId snap);

  /// Executes with the current bindings; rows go to `cb` for SELECTs.
  /// All parameters must be bound. May be executed repeatedly; bindings
  /// persist across executions until rebound. Planning decisions (join
  /// order, transient covering-index specs) carry across executions via a
  /// per-statement PlanCache; only per-execution work repeats.
  Status Execute(const QueryCallback& cb = nullptr);

  /// Number of '?' placeholders in the statement.
  int parameter_count() const {
    return static_cast<int>(parameters_.size());
  }

  /// Executions that reused a cached planning decision (diagnostics).
  int64_t plan_cache_hits() const { return plan_cache_.hits; }

 private:
  friend class Database;
  PreparedStatement(Database* db, Statement stmt);

  Database* db_;
  std::unique_ptr<Statement> stmt_;   // stable address for parameter nodes
  std::vector<Expr*> parameters_;     // position i-1 holds placeholder ?i
  PlanCache plan_cache_;              // survives across Execute calls
};

/// A SQL database over the Retro snapshot store: the reproduction of the
/// paper's "BDB SQLite with Retro" substrate.
///
/// Supported SQL: CREATE TABLE [AS SELECT] / CREATE INDEX / DROP,
/// INSERT (VALUES and SELECT), UPDATE, DELETE, SELECT with joins,
/// GROUP BY / HAVING, DISTINCT, ORDER BY, LIMIT, scalar UDFs, and the
/// Retro extensions: BEGIN; COMMIT WITH SNAPSHOT; and SELECT AS OF <sid>.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(
      storage::Env* env, const std::string& name,
      DatabaseOptions options = DatabaseOptions());

  /// Opens a second Database handle over an existing store (which the
  /// caller keeps ownership of, and which must outlive the returned
  /// handle). This is how concurrent RQL clients share one SnapshotStore —
  /// and with it the snapshot page cache and a store-scoped
  /// SharedScanCache — while keeping per-client state (current_snapshot,
  /// attached caches, statement stats) independent. Attached handles are
  /// intended for snapshot (AS OF) reads; writes are the owning handle's
  /// business: the attached catalog is loaded once and not refreshed on
  /// concurrent DDL.
  static Result<std::unique_ptr<Database>> Attach(retro::SnapshotStore* store);

  /// Executes a ';'-separated script. Result rows of SELECTs go to `cb`
  /// (or are discarded when null).
  Status Exec(std::string_view sql, const QueryCallback& cb = nullptr);

  /// Executes a single SELECT (or script whose last statement is a SELECT)
  /// and materializes the result.
  Result<QueryResult> Query(std::string_view sql);

  /// First column of the first row of `sql`; NotFound if no rows.
  Result<Value> QueryScalar(std::string_view sql);

  /// Parses one statement (which may contain '?' placeholders) for
  /// repeated execution.
  Result<std::unique_ptr<PreparedStatement>> Prepare(std::string_view sql);

  /// Registers a scalar UDF (the hook RQL mechanisms use).
  void RegisterFunction(const std::string& name, int min_args, int max_args,
                        ScalarFn fn);

  /// Sets the value returned by current_snapshot(); 0 clears it. The RQL
  /// runner sets this for the duration of each Qq iteration.
  void set_current_snapshot(retro::SnapshotId snap) {
    current_snapshot_ = snap;
  }
  retro::SnapshotId current_snapshot() const { return current_snapshot_; }

  /// The snapshot declared by the most recent COMMIT WITH SNAPSHOT.
  retro::SnapshotId last_declared_snapshot() const { return last_declared_; }

  /// Attaches (or with nullptr detaches) a decoded-page cache: AS OF
  /// SELECTs pass it to the executor, which reuses decoded page versions
  /// across snapshots (and, for a store-scoped cache, across runs).
  /// Current-state queries are unaffected (their pages carry no stable
  /// version). The caller owns the cache and its lifetime.
  void set_scan_cache(SharedScanCache* cache) { scan_cache_ = cache; }
  SharedScanCache* scan_cache() const { return scan_cache_; }

  /// Attaches (or with nullptr detaches) a snapshot set: AS OF statements
  /// open their snapshot through it (SnapshotSet::Open) instead of a cold
  /// SnapshotStore::OpenSnapshot, so an RQL run's cursor and version
  /// recorder see its Qq reads. The caller owns the set and its lifetime.
  void set_snapshot_set(retro::SnapshotSet* set) { snapshot_set_ = set; }
  retro::SnapshotSet* snapshot_set() const { return snapshot_set_; }

  /// Run-scoped batch-execution toggle (RqlProfile::kFast):
  /// SELECT execution serves eligible sequential scans page-at-a-time
  /// through RowBatches instead of row by row. Results are byte-identical
  /// to the row path; only ExecStats batch counters and timings change.
  /// The optional histogram observes the row count of every batch.
  void set_batch_execution(bool on,
                           retro::MetricsRegistry::Histogram* hist =
                               nullptr) {
    batch_execution_ = on;
    batch_size_hist_ = on ? hist : nullptr;
  }
  bool batch_execution() const { return batch_execution_; }

  retro::SnapshotStore* store() { return store_; }
  Catalog* catalog() { return catalog_.get(); }
  FunctionRegistry* functions() { return &functions_; }
  const DbExecStats& last_stats() const { return last_stats_; }

  /// Size of a table (for the paper's memory-footprint experiments).
  struct TableStats {
    uint64_t pages = 0;
    uint64_t bytes = 0;  // pages * page size
    uint64_t rows = 0;
    uint64_t payload_bytes = 0;  // sum of record sizes
  };
  Result<TableStats> GetTableStats(std::string_view table);

  /// Size of an index in pages/bytes.
  Result<TableStats> GetIndexStats(std::string_view index);

  /// Appends one row to `table`, maintaining its indexes. Returns the rid.
  /// This is the fast path the RQL mechanisms use for result tables,
  /// standing in for SQLite prepared INSERT statements.
  Result<Rid> AppendRow(std::string_view table, const Row& row);

  /// Replaces the row at `rid` (all columns), maintaining indexes; the row
  /// may move. Returns the new rid. An index is left untouched when the row
  /// stayed at `rid` and every indexed column is identical (same type and
  /// bits, sql::IdenticalValues), since its key bytes did not change; as in
  /// SQLite, only the indexes whose columns changed are rewritten.
  Result<Rid> UpdateRowAt(std::string_view table, Rid rid, const Row& old_row,
                          const Row& new_row);

  /// Rewrites rows of `table` in place, in the given order, each record in
  /// EncodeRow form: UpdateRowAt's in-place case, batched. Each touched
  /// heap page is read and written once, where UpdateRowAt reads and
  /// writes it once per row. Only overwrites that move no row and change
  /// no index are taken: a record no larger than the one it replaces,
  /// with every indexed column identical. The heap then ends byte-
  /// identical to the same UpdateRowAt calls. Fails on a dead slot, a
  /// grown record or a changed indexed column.
  Status OverwriteRows(std::string_view table,
                       const std::vector<RecordOverwrite>& rows);

 private:
  friend class PreparedStatement;
  Database() = default;

  /// Shared tail of Open/Attach: loads the catalog and registers builtins
  /// once `store_` points at the (owned or borrowed) store.
  Status Init();

  /// What an AS OF statement's ExecContext borrows: the snapshot's view
  /// and catalog. Destruction adds the view's store counters to the
  /// statement's ExecStats.
  struct BoundReader {
    std::unique_ptr<retro::SnapshotView> view;
    CatalogData catalog;
    ExecStats* stats = nullptr;
    BoundReader() = default;
    BoundReader(const BoundReader&) = delete;
    BoundReader& operator=(const BoundReader&) = delete;
    ~BoundReader() {
      if (view != nullptr && stats != nullptr) stats->store.Add(view->stats());
    }
  };

  /// Points `ctx` at what `stmt` reads: the snapshot its AS OF names
  /// (opened through the attached snapshot set, if any) with that
  /// snapshot's catalog, held in `bound`, or the current state.
  Status BindReader(const SelectStmt& stmt, ExecContext* ctx,
                    BoundReader* bound);

  Status ExecStatement(Statement* stmt, const QueryCallback& cb);
  Status ExecSelect(const SelectStmt& stmt, const QueryCallback& cb);
  Status ExecCreateTable(CreateTableStmt* stmt);
  Status ExecCreateIndex(const CreateIndexStmt& stmt);
  Status ExecDrop(const DropStmt& stmt);
  Status ExecInsert(InsertStmt* stmt);
  Status ExecUpdate(UpdateStmt* stmt);
  Status ExecDelete(DeleteStmt* stmt);

  /// Inserts `row` and maintains all indexes of `table`.
  Status InsertRow(const TableInfo& table, const Row& row);
  Status DeleteRow(const TableInfo& table, Rid rid, const Row& row);

  /// Runs `body` inside the current transaction, or inside an implicit
  /// single-statement transaction with rollback on failure.
  Status WithImplicitTxn(const std::function<Status()>& body);

  // `store_` is the working pointer; `owned_store_` holds ownership for
  // Open-created databases and stays null for Attach-created handles.
  std::unique_ptr<retro::SnapshotStore> owned_store_;
  retro::SnapshotStore* store_ = nullptr;
  std::unique_ptr<Catalog> catalog_;
  FunctionRegistry functions_;
  retro::SnapshotId current_snapshot_ = retro::kNoSnapshot;
  retro::SnapshotId last_declared_ = retro::kNoSnapshot;
  // Plan cache of the PreparedStatement currently executing (if any);
  // consumed by ExecSelect for the top-level statement.
  PlanCache* active_plan_cache_ = nullptr;
  SharedScanCache* scan_cache_ = nullptr;
  retro::SnapshotSet* snapshot_set_ = nullptr;
  bool batch_execution_ = false;
  retro::MetricsRegistry::Histogram* batch_size_hist_ = nullptr;
  DbExecStats last_stats_;
};

}  // namespace rql::sql

#endif  // RQL_SQL_DATABASE_H_
