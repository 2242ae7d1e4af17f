#include "sql/database.h"

#include <algorithm>

#include "common/clock.h"
#include "sql/btree.h"
#include "sql/parser.h"

namespace rql::sql {

namespace {

constexpr uint32_t kCatalogRootSlot = 0;

/// Builds the index key for `row` at `rid`: the indexed columns plus the
/// rid as a uniquifying suffix.
Row IndexKey(const IndexInfo& index, const Row& row, Rid rid) {
  Row key;
  key.reserve(index.column_idx.size() + 1);
  for (int idx : index.column_idx) {
    key.push_back(row[static_cast<size_t>(idx)]);
  }
  key.push_back(Value::Integer(static_cast<int64_t>(rid)));
  return key;
}

/// Resolves a SELECT's AS OF clause: a bound "AS OF ?" parameter takes
/// precedence over the literal form. kNoSnapshot = current state.
Result<retro::SnapshotId> ResolveAsOf(const SelectStmt& stmt) {
  if (stmt.as_of_param == nullptr) return stmt.as_of;
  if (!stmt.as_of_param->param_bound) {
    return Status::InvalidArgument("AS OF parameter is unbound");
  }
  const Value& v = stmt.as_of_param->literal;
  if (v.type() != ValueType::kInteger || v.integer() < 0) {
    return Status::InvalidArgument(
        "AS OF parameter must be bound to a snapshot id");
  }
  return static_cast<retro::SnapshotId>(v.integer());
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(storage::Env* env,
                                                 const std::string& name,
                                                 DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database());
  RQL_ASSIGN_OR_RETURN(db->owned_store_,
                       retro::SnapshotStore::Open(env, name, options.store));
  db->store_ = db->owned_store_.get();
  RQL_RETURN_IF_ERROR(db->Init());
  return db;
}

Result<std::unique_ptr<Database>> Database::Attach(
    retro::SnapshotStore* store) {
  auto db = std::unique_ptr<Database>(new Database());
  db->store_ = store;
  RQL_RETURN_IF_ERROR(db->Init());
  return db;
}

Status Database::Init() {
  RQL_ASSIGN_OR_RETURN(storage::PageId catalog_root,
                       store_->GetRoot(kCatalogRootSlot));
  storage::PageId original_root = catalog_root;
  RQL_ASSIGN_OR_RETURN(catalog_, Catalog::Open(store_, &catalog_root));
  if (catalog_root != original_root) {
    RQL_RETURN_IF_ERROR(store_->SetRoot(kCatalogRootSlot, catalog_root));
  }
  functions_ = FunctionRegistry::WithBuiltins();
  // The paper's current_snapshot() construct: yields the snapshot id of the
  // RQL iteration in progress.
  Database* raw = this;
  functions_.Register(
      "current_snapshot", 0, 0,
      [raw](const std::vector<Value>&) -> Result<Value> {
        if (raw->current_snapshot_ == retro::kNoSnapshot) {
          return Status::InvalidArgument(
              "current_snapshot() used outside an RQL iteration");
        }
        return Value::Integer(raw->current_snapshot_);
      });
  return Status::OK();
}

Status Database::Exec(std::string_view sql, const QueryCallback& cb) {
  last_stats_ = DbExecStats{};
  int64_t start = NowMicros();
  RQL_ASSIGN_OR_RETURN(std::vector<Statement> statements, ParseSql(sql));
  last_stats_.parse_us = NowMicros() - start;
  start = NowMicros();
  for (Statement& stmt : statements) {
    RQL_RETURN_IF_ERROR(ExecStatement(&stmt, cb));
  }
  last_stats_.exec_us = NowMicros() - start;
  return Status::OK();
}

Result<QueryResult> Database::Query(std::string_view sql) {
  QueryResult result;
  RQL_RETURN_IF_ERROR(Exec(
      sql, [&result](const std::vector<std::string>& columns,
                     const Row& row) {
        if (result.columns.empty()) result.columns = columns;
        result.rows.push_back(row);
        return Status::OK();
      }));
  return result;
}

Result<Value> Database::QueryScalar(std::string_view sql) {
  RQL_ASSIGN_OR_RETURN(QueryResult result, Query(sql));
  if (result.rows.empty() || result.rows[0].empty()) {
    return Status::NotFound("query returned no rows");
  }
  return result.rows[0][0];
}

void Database::RegisterFunction(const std::string& name, int min_args,
                                int max_args, ScalarFn fn) {
  functions_.Register(name, min_args, max_args, std::move(fn));
}

PreparedStatement::PreparedStatement(Database* db, Statement stmt)
    : db_(db), stmt_(std::make_unique<Statement>(std::move(stmt))) {
  VisitStatementExprs(stmt_.get(), [this](Expr* expr) {
    if (expr->kind == ExprKind::kParameter) {
      if (static_cast<size_t>(expr->param_index) > parameters_.size()) {
        parameters_.resize(static_cast<size_t>(expr->param_index), nullptr);
      }
      parameters_[static_cast<size_t>(expr->param_index) - 1] = expr;
    }
  });
}

Status PreparedStatement::BindValue(int index, Value value) {
  if (index < 1 || static_cast<size_t>(index) > parameters_.size() ||
      parameters_[static_cast<size_t>(index) - 1] == nullptr) {
    return Status::InvalidArgument("no such parameter: ?" +
                                   std::to_string(index));
  }
  Expr* param = parameters_[static_cast<size_t>(index) - 1];
  param->literal = std::move(value);
  param->param_bound = true;
  return Status::OK();
}

Status PreparedStatement::Execute(const QueryCallback& cb) {
  for (size_t i = 0; i < parameters_.size(); ++i) {
    if (parameters_[i] != nullptr && !parameters_[i]->param_bound) {
      return Status::InvalidArgument("unbound parameter: ?" +
                                     std::to_string(i + 1));
    }
  }
  db_->last_stats_ = DbExecStats{};
  int64_t start = NowMicros();
  db_->active_plan_cache_ = &plan_cache_;
  Status s = db_->ExecStatement(stmt_.get(), cb);
  db_->active_plan_cache_ = nullptr;
  db_->last_stats_.exec_us = NowMicros() - start;
  return s;
}

Status PreparedStatement::BindAsOf(retro::SnapshotId snap) {
  auto* select = std::get_if<SelectStmt>(stmt_.get());
  if (select == nullptr) {
    return Status::InvalidArgument("BindAsOf requires a SELECT statement");
  }
  if (select->as_of_param != nullptr) {
    select->as_of_param->literal = Value::Integer(snap);
    select->as_of_param->param_bound = true;
  } else {
    select->as_of = snap;
  }
  return Status::OK();
}

Result<std::unique_ptr<PreparedStatement>> Database::Prepare(
    std::string_view sql) {
  RQL_ASSIGN_OR_RETURN(Statement stmt, ParseSingle(sql));
  return std::unique_ptr<PreparedStatement>(
      new PreparedStatement(this, std::move(stmt)));
}

Status Database::WithImplicitTxn(const std::function<Status()>& body) {
  if (store_->in_transaction()) return body();
  RQL_RETURN_IF_ERROR(store_->Begin());
  Status s = body();
  if (s.ok()) s = store_->Commit();
  if (s.ok()) return s;
  // Roll back (a failed Commit has already dropped its batch) and restore
  // the in-memory catalog to the on-disk state.
  Status rb =
      store_->in_transaction() ? store_->Rollback() : Status::OK();
  if (rb.ok()) rb = catalog_->Reload();
  return s;  // the original failure wins
}

Status Database::ExecStatement(Statement* stmt, const QueryCallback& cb) {
  if (auto* s = std::get_if<SelectStmt>(stmt)) return ExecSelect(*s, cb);
  if (auto* s = std::get_if<CreateTableStmt>(stmt)) {
    return WithImplicitTxn([&] { return ExecCreateTable(s); });
  }
  if (auto* s = std::get_if<CreateIndexStmt>(stmt)) {
    return WithImplicitTxn([&] { return ExecCreateIndex(*s); });
  }
  if (auto* s = std::get_if<DropStmt>(stmt)) {
    return WithImplicitTxn([&] { return ExecDrop(*s); });
  }
  if (auto* s = std::get_if<InsertStmt>(stmt)) {
    return WithImplicitTxn([&] { return ExecInsert(s); });
  }
  if (auto* s = std::get_if<UpdateStmt>(stmt)) {
    return WithImplicitTxn([&] { return ExecUpdate(s); });
  }
  if (auto* s = std::get_if<DeleteStmt>(stmt)) {
    return WithImplicitTxn([&] { return ExecDelete(s); });
  }
  if (std::get_if<BeginStmt>(stmt)) return store_->Begin();
  if (auto* s = std::get_if<CommitStmt>(stmt)) {
    retro::SnapshotId declared = retro::kNoSnapshot;
    Status c = store_->Commit(s->with_snapshot, &declared);
    if (!c.ok()) {
      // The batch is gone; drop in-memory catalog state it may have built.
      (void)catalog_->Reload();
      return c;
    }
    if (s->with_snapshot) last_declared_ = declared;
    return Status::OK();
  }
  if (std::get_if<RollbackStmt>(stmt)) {
    RQL_RETURN_IF_ERROR(store_->Rollback());
    return catalog_->Reload();
  }
  if (auto* s = std::get_if<ExplainStmt>(stmt)) {
    ExecContext ctx;
    ctx.functions = &functions_;
    ctx.stats = &last_stats_.exec;
    BoundReader bound;
    RQL_RETURN_IF_ERROR(BindReader(*s->select, &ctx, &bound));
    RQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectExecutor> exec,
                         SelectExecutor::Prepare(s->select.get(), ctx));
    if (cb == nullptr) return Status::OK();
    static const std::vector<std::string> kColumns = {"plan"};
    for (const std::string& line : exec->DescribePlan()) {
      RQL_RETURN_IF_ERROR(cb(kColumns, {Value::Text(line)}));
    }
    return Status::OK();
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::BindReader(const SelectStmt& stmt, ExecContext* ctx,
                            BoundReader* bound) {
  RQL_ASSIGN_OR_RETURN(ctx->as_of, ResolveAsOf(stmt));
  if (ctx->as_of == retro::kNoSnapshot) {
    ctx->reader = store_;
    ctx->catalog = &catalog_->data();
    return Status::OK();
  }
  if (snapshot_set_ != nullptr) {
    RQL_ASSIGN_OR_RETURN(bound->view, snapshot_set_->Open(ctx->as_of));
  } else {
    RQL_ASSIGN_OR_RETURN(bound->view, store_->OpenSnapshot(ctx->as_of));
  }
  bound->view->set_archive_read_retries(archive_read_retries_);
  bound->stats = ctx->stats;
  ctx->reader = bound->view.get();
  RQL_ASSIGN_OR_RETURN(bound->catalog,
                       CatalogData::Load(bound->view.get(), catalog_->root()));
  ctx->catalog = &bound->catalog;
  return Status::OK();
}

Status Database::ExecSelect(const SelectStmt& stmt, const QueryCallback& cb) {
  ExecContext ctx;
  ctx.functions = &functions_;
  ctx.stats = &last_stats_.exec;
  ctx.plan_cache = active_plan_cache_;
  // Harmless for current-state reads: only versioned (archived snapshot)
  // pages are ever looked up in or added to the cache.
  ctx.scan_cache = scan_cache_;
  ctx.batch_execution = batch_execution_;
  ctx.batch_size_hist = batch_size_hist_;

  BoundReader bound;
  RQL_RETURN_IF_ERROR(BindReader(stmt, &ctx, &bound));

  RQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectExecutor> exec,
                       SelectExecutor::Prepare(&stmt, ctx));
  const std::vector<std::string>& columns = exec->columns();
  return exec->Run([&](const Row& row) -> Status {
    if (cb == nullptr) return Status::OK();
    return cb(columns, row);
  });
}

Status Database::ExecCreateTable(CreateTableStmt* stmt) {
  if (catalog_->data().FindTable(stmt->name) != nullptr) {
    if (stmt->if_not_exists) return Status::OK();
    return Status::AlreadyExists("table already exists: " + stmt->name);
  }
  if (stmt->as_select == nullptr) {
    return catalog_->CreateTable(stmt->name, stmt->schema);
  }

  // CREATE TABLE ... AS SELECT: materialize, infer the schema, load.
  std::vector<std::string> columns;
  std::vector<Row> rows;
  ExecContext ctx;
  ctx.functions = &functions_;
  ctx.stats = &last_stats_.exec;
  BoundReader bound;
  RQL_RETURN_IF_ERROR(BindReader(*stmt->as_select, &ctx, &bound));
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectExecutor> exec,
                       SelectExecutor::Prepare(stmt->as_select.get(), ctx));
  columns = exec->columns();
  RQL_RETURN_IF_ERROR(exec->Run([&rows](const Row& row) {
    rows.push_back(row);
    return Status::OK();
  }));

  TableSchema schema;
  for (size_t c = 0; c < columns.size(); ++c) {
    ColumnDef col;
    col.name = columns[c];
    col.type = ValueType::kText;
    for (const Row& row : rows) {
      if (!row[c].is_null()) {
        col.type = row[c].type();
        break;
      }
    }
    schema.columns.push_back(std::move(col));
  }
  RQL_RETURN_IF_ERROR(catalog_->CreateTable(stmt->name, schema));
  const TableInfo* info = catalog_->data().FindTable(stmt->name);
  for (const Row& row : rows) {
    RQL_RETURN_IF_ERROR(InsertRow(*info, row));
  }
  return Status::OK();
}

Status Database::ExecCreateIndex(const CreateIndexStmt& stmt) {
  RQL_ASSIGN_OR_RETURN(const IndexInfo* index,
                       catalog_->CreateIndex(stmt.name, stmt.table,
                                             stmt.columns));
  const TableInfo* table = catalog_->data().FindTable(stmt.table);
  BTree tree(store_, index->root);
  for (auto it = HeapTable::Scan(store_, table->root); it.Valid();
       it.Next()) {
    RQL_ASSIGN_OR_RETURN(Row row, DecodeRow(it.record()));
    RQL_RETURN_IF_ERROR(tree.Insert(IndexKey(*index, row, it.rid()),
                                    it.rid()));
  }
  return Status::OK();
}

Status Database::ExecDrop(const DropStmt& stmt) {
  if (stmt.is_index) {
    Status s = catalog_->DropIndex(stmt.name);
    if (s.IsNotFound() && stmt.if_exists) return Status::OK();
    return s;
  }
  Status s = catalog_->DropTable(stmt.name);
  if (s.IsNotFound() && stmt.if_exists) return Status::OK();
  return s;
}

Status Database::InsertRow(const TableInfo& table, const Row& row) {
  if (row.size() != table.schema.size()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   table.name);
  }
  HeapTable heap(store_, table.root);
  RQL_ASSIGN_OR_RETURN(Rid rid, heap.Insert(EncodeRow(row)));
  for (const IndexInfo* index : catalog_->data().TableIndexes(table.name)) {
    BTree tree(store_, index->root);
    RQL_RETURN_IF_ERROR(tree.Insert(IndexKey(*index, row, rid), rid));
  }
  return Status::OK();
}

Status Database::DeleteRow(const TableInfo& table, Rid rid, const Row& row) {
  HeapTable heap(store_, table.root);
  RQL_RETURN_IF_ERROR(heap.Delete(rid));
  for (const IndexInfo* index : catalog_->data().TableIndexes(table.name)) {
    BTree tree(store_, index->root);
    RQL_RETURN_IF_ERROR(tree.Delete(IndexKey(*index, row, rid)));
  }
  return Status::OK();
}

Status Database::ExecInsert(InsertStmt* stmt) {
  const TableInfo* table = catalog_->data().FindTable(stmt->table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt->table);
  }
  // Map the statement's column list (possibly empty = positional).
  std::vector<int> positions;
  if (stmt->columns.empty()) {
    for (size_t i = 0; i < table->schema.size(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : stmt->columns) {
      int idx = table->schema.FindColumn(name);
      if (idx < 0) {
        return Status::NotFound("no such column: " + name);
      }
      positions.push_back(idx);
    }
  }

  auto insert_positional = [&](const Row& values) -> Status {
    if (values.size() != positions.size()) {
      return Status::InvalidArgument("INSERT value count mismatch");
    }
    Row row(table->schema.size(), Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      row[static_cast<size_t>(positions[i])] = values[i];
    }
    return InsertRow(*table, row);
  };

  if (stmt->select != nullptr) {
    ExecContext ctx;
    ctx.functions = &functions_;
    ctx.stats = &last_stats_.exec;
    BoundReader bound;
    RQL_RETURN_IF_ERROR(BindReader(*stmt->select, &ctx, &bound));
    RQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectExecutor> exec,
                         SelectExecutor::Prepare(stmt->select.get(), ctx));
    return exec->Run(insert_positional);
  }

  for (const std::vector<ExprPtr>& value_exprs : stmt->rows) {
    Row values;
    values.reserve(value_exprs.size());
    EvalContext ectx{nullptr, &functions_, nullptr, nullptr};
    for (const ExprPtr& e : value_exprs) {
      RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, ectx));
      values.push_back(std::move(v));
    }
    RQL_RETURN_IF_ERROR(insert_positional(values));
  }
  return Status::OK();
}

namespace {

/// Minimal subquery runner for DML WHERE clauses: executes each
/// uncorrelated subquery once against the current state and caches it.
class DmlSubqueryRunner : public SubqueryRunner {
 public:
  explicit DmlSubqueryRunner(const ExecContext& ctx) : ctx_(ctx) {}

  Result<const std::vector<Row>*> RunSubquery(const Expr& expr) override {
    auto it = cache_.find(&expr);
    if (it != cache_.end()) {
      return static_cast<const std::vector<Row>*>(&it->second);
    }
    if (expr.subquery == nullptr) {
      return Status::Internal("missing subquery statement");
    }
    if (expr.subquery->as_of != retro::kNoSnapshot ||
        expr.subquery->as_of_param != nullptr) {
      return Status::NotSupported(
          "AS OF subqueries are not supported in DML WHERE clauses");
    }
    RQL_ASSIGN_OR_RETURN(std::unique_ptr<SelectExecutor> exec,
                         SelectExecutor::Prepare(expr.subquery.get(), ctx_));
    std::vector<Row> rows;
    RQL_RETURN_IF_ERROR(exec->Run([&rows](const Row& row) {
      rows.push_back(row);
      return Status::OK();
    }));
    auto [pos, inserted] = cache_.emplace(&expr, std::move(rows));
    return static_cast<const std::vector<Row>*>(&pos->second);
  }

 private:
  ExecContext ctx_;
  std::unordered_map<const Expr*, std::vector<Row>> cache_;
};

/// Matches a WHERE of the form `col = literal` (either side) against an
/// index whose first column is `col`; used to avoid full scans in
/// DELETE/UPDATE, which the TPC-H refresh workload issues in bulk.
const Expr* EqualityLiteral(const Expr* where, int* column_index) {
  if (where == nullptr || where->kind != ExprKind::kBinary ||
      where->bin_op != BinOp::kEq) {
    return nullptr;
  }
  const Expr* lhs = where->args[0].get();
  const Expr* rhs = where->args[1].get();
  if (lhs->kind == ExprKind::kColumnRef && rhs->kind == ExprKind::kLiteral) {
    *column_index = lhs->column_index;
    return rhs;
  }
  if (rhs->kind == ExprKind::kColumnRef && lhs->kind == ExprKind::kLiteral) {
    *column_index = rhs->column_index;
    return lhs;
  }
  return nullptr;
}

}  // namespace

Status Database::ExecDelete(DeleteStmt* stmt) {
  const TableInfo* table = catalog_->data().FindTable(stmt->table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt->table);
  }
  BindScope scope;
  scope.Add(stmt->table, &table->schema);
  if (stmt->where != nullptr) {
    RQL_RETURN_IF_ERROR(BindExpr(stmt->where.get(), scope));
  }

  // Collect matches first (scan or index probe), then mutate.
  ExecContext sub_ctx;
  sub_ctx.reader = store_;
  sub_ctx.catalog = &catalog_->data();
  sub_ctx.functions = &functions_;
  DmlSubqueryRunner subqueries(sub_ctx);
  std::vector<std::pair<Rid, Row>> victims;
  int eq_column = -1;
  const Expr* literal = EqualityLiteral(stmt->where.get(), &eq_column);
  const IndexInfo* index =
      literal != nullptr && eq_column >= 0
          ? catalog_->data().IndexOnColumn(
                table->name, table->schema.columns[eq_column].name)
          : nullptr;
  if (index != nullptr) {
    Row probe = {literal->literal};
    RQL_ASSIGN_OR_RETURN(BTree::Iterator it,
                         BTree::Seek(store_, index->root, probe));
    for (; it.Valid(); it.Next()) {
      if (it.key().empty() ||
          CompareValues(it.key()[0], literal->literal) != 0) {
        break;
      }
      RQL_ASSIGN_OR_RETURN(std::string record,
                           HeapTable::Get(store_, it.value()));
      RQL_ASSIGN_OR_RETURN(Row row, DecodeRow(record));
      victims.emplace_back(it.value(), std::move(row));
    }
    RQL_RETURN_IF_ERROR(it.status());
  } else {
    for (auto it = HeapTable::Scan(store_, table->root); it.Valid();
         it.Next()) {
      RQL_ASSIGN_OR_RETURN(Row row, DecodeRow(it.record()));
      if (stmt->where != nullptr) {
        EvalContext ectx{&row, &functions_, nullptr, nullptr, &subqueries};
        RQL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*stmt->where, ectx));
        if (!ValueIsTrue(cond)) continue;
      }
      victims.emplace_back(it.rid(), std::move(row));
    }
  }
  for (const auto& [rid, row] : victims) {
    RQL_RETURN_IF_ERROR(DeleteRow(*table, rid, row));
  }
  return Status::OK();
}

Status Database::ExecUpdate(UpdateStmt* stmt) {
  const TableInfo* table = catalog_->data().FindTable(stmt->table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + stmt->table);
  }
  BindScope scope;
  scope.Add(stmt->table, &table->schema);
  if (stmt->where != nullptr) {
    RQL_RETURN_IF_ERROR(BindExpr(stmt->where.get(), scope));
  }
  std::vector<std::pair<int, Expr*>> assignments;
  for (auto& [name, expr] : stmt->assignments) {
    int idx = table->schema.FindColumn(name);
    if (idx < 0) return Status::NotFound("no such column: " + name);
    RQL_RETURN_IF_ERROR(BindExpr(expr.get(), scope));
    assignments.emplace_back(idx, expr.get());
  }

  ExecContext sub_ctx;
  sub_ctx.reader = store_;
  sub_ctx.catalog = &catalog_->data();
  sub_ctx.functions = &functions_;
  DmlSubqueryRunner subqueries(sub_ctx);
  std::vector<std::pair<Rid, Row>> matches;
  for (auto it = HeapTable::Scan(store_, table->root); it.Valid();
       it.Next()) {
    RQL_ASSIGN_OR_RETURN(Row row, DecodeRow(it.record()));
    if (stmt->where != nullptr) {
      EvalContext ectx{&row, &functions_, nullptr, nullptr, &subqueries};
      RQL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*stmt->where, ectx));
      if (!ValueIsTrue(cond)) continue;
    }
    matches.emplace_back(it.rid(), std::move(row));
  }

  HeapTable heap(store_, table->root);
  auto indexes = catalog_->data().TableIndexes(table->name);
  for (auto& [rid, row] : matches) {
    Row updated = row;
    EvalContext ectx{&row, &functions_, nullptr, nullptr, &subqueries};
    for (const auto& [idx, expr] : assignments) {
      RQL_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, ectx));
      updated[static_cast<size_t>(idx)] = std::move(v);
    }
    RQL_ASSIGN_OR_RETURN(Rid new_rid, heap.Update(rid, EncodeRow(updated)));
    for (const IndexInfo* index : indexes) {
      BTree tree(store_, index->root);
      RQL_RETURN_IF_ERROR(tree.Delete(IndexKey(*index, row, rid)));
      RQL_RETURN_IF_ERROR(tree.Insert(IndexKey(*index, updated, new_rid),
                                      new_rid));
    }
  }
  return Status::OK();
}

Result<Rid> Database::AppendRow(std::string_view table, const Row& row) {
  const TableInfo* info = catalog_->data().FindTable(table);
  if (info == nullptr) {
    return Status::NotFound("no such table: " + std::string(table));
  }
  Rid rid = 0;
  RQL_RETURN_IF_ERROR(WithImplicitTxn([&]() -> Status {
    if (row.size() != info->schema.size()) {
      return Status::InvalidArgument("row arity mismatch for table " +
                                     info->name);
    }
    HeapTable heap(store_, info->root);
    RQL_ASSIGN_OR_RETURN(rid, heap.Insert(EncodeRow(row)));
    for (const IndexInfo* index : catalog_->data().TableIndexes(info->name)) {
      BTree tree(store_, index->root);
      RQL_RETURN_IF_ERROR(tree.Insert(IndexKey(*index, row, rid), rid));
    }
    return Status::OK();
  }));
  return rid;
}

Result<Rid> Database::UpdateRowAt(std::string_view table, Rid rid,
                                  const Row& old_row, const Row& new_row) {
  const TableInfo* info = catalog_->data().FindTable(table);
  if (info == nullptr) {
    return Status::NotFound("no such table: " + std::string(table));
  }
  Rid new_rid = rid;
  RQL_RETURN_IF_ERROR(WithImplicitTxn([&]() -> Status {
    HeapTable heap(store_, info->root);
    RQL_ASSIGN_OR_RETURN(new_rid, heap.Update(rid, EncodeRow(new_row)));
    for (const IndexInfo* index : catalog_->data().TableIndexes(info->name)) {
      if (new_rid == rid &&
          std::all_of(index->column_idx.begin(), index->column_idx.end(),
                      [&](int idx) {
                        size_t i = static_cast<size_t>(idx);
                        return IdenticalValues(old_row[i], new_row[i]);
                      })) {
        continue;  // same key bytes
      }
      BTree tree(store_, index->root);
      RQL_RETURN_IF_ERROR(tree.Delete(IndexKey(*index, old_row, rid)));
      RQL_RETURN_IF_ERROR(
          tree.Insert(IndexKey(*index, new_row, new_rid), new_rid));
    }
    return Status::OK();
  }));
  return new_rid;
}

Status Database::OverwriteRows(std::string_view table,
                               const std::vector<RecordOverwrite>& rows) {
  const TableInfo* info = catalog_->data().FindTable(table);
  if (info == nullptr) {
    return Status::NotFound("no such table: " + std::string(table));
  }
  std::vector<size_t> indexed;  // columns some index keys on
  for (const IndexInfo* index : catalog_->data().TableIndexes(info->name)) {
    for (int idx : index->column_idx) {
      indexed.push_back(static_cast<size_t>(idx));
    }
  }
  std::vector<std::string_view> stored_values, values;
  auto check = [&](std::string_view stored, std::string_view record) {
    RQL_RETURN_IF_ERROR(SplitEncodedRow(stored, &stored_values));
    RQL_RETURN_IF_ERROR(SplitEncodedRow(record, &values));
    if (values.size() != info->schema.size() ||
        stored_values.size() != values.size()) {
      return Status::InvalidArgument("row arity mismatch for table " +
                                     info->name);
    }
    for (size_t idx : indexed) {
      if (stored_values[idx] != values[idx]) {
        return Status::InvalidArgument(
            "in-place overwrite changes an indexed column of " + info->name);
      }
    }
    return Status::OK();
  };
  return WithImplicitTxn([&]() -> Status {
    HeapTable heap(store_, info->root);
    return heap.Overwrite(rows, check);
  });
}

Result<Database::TableStats> Database::GetTableStats(std::string_view table) {
  const TableInfo* info = catalog_->data().FindTable(table);
  if (info == nullptr) {
    return Status::NotFound("no such table: " + std::string(table));
  }
  TableStats stats;
  RQL_ASSIGN_OR_RETURN(stats.pages,
                       HeapTable::CountPages(store_, info->root));
  stats.bytes = stats.pages * storage::kPageSize;
  for (auto it = HeapTable::Scan(store_, info->root); it.Valid();
       it.Next()) {
    ++stats.rows;
    stats.payload_bytes += it.record().size();
  }
  return stats;
}

Result<Database::TableStats> Database::GetIndexStats(std::string_view index) {
  const IndexInfo* info = catalog_->data().FindIndex(index);
  if (info == nullptr) {
    return Status::NotFound("no such index: " + std::string(index));
  }
  TableStats stats;
  RQL_ASSIGN_OR_RETURN(stats.pages,
                       BTree::CountPages(store_, info->root));
  stats.bytes = stats.pages * storage::kPageSize;
  return stats;
}

}  // namespace rql::sql
