#include "rql/rql.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <functional>
#include <thread>
#include <unordered_map>
#include <variant>

#include "common/clock.h"
#include "sql/btree.h"
#include "sql/executor.h"
#include "sql/fingerprint.h"
#include "sql/heap_table.h"
#include "sql/parser.h"
#include "sql/shared_scan_cache.h"

namespace rql {

using sql::Row;
using sql::Value;

namespace {

/// Infers a result-table schema from Qq's output columns and a sample row.
sql::TableSchema SchemaFrom(const std::vector<std::string>& cols,
                            const Row& row) {
  sql::TableSchema schema;
  for (size_t i = 0; i < cols.size(); ++i) {
    sql::ColumnDef col;
    col.name = cols[i];
    col.type = (i < row.size() && !row[i].is_null()) ? row[i].type()
                                                     : sql::ValueType::kText;
    schema.columns.push_back(std::move(col));
  }
  return schema;
}

/// Creates an index and populates it from the table's current contents
/// (used after the first cold iteration fills the result table).
Status CreateAndPopulateIndex(sql::Database* db, const std::string& name,
                              const std::string& table,
                              const std::vector<std::string>& columns) {
  RQL_ASSIGN_OR_RETURN(const sql::IndexInfo* index,
                       db->catalog()->CreateIndex(name, table, columns));
  const sql::TableInfo* info = db->catalog()->data().FindTable(table);
  sql::BTree tree(db->store(), index->root);
  for (auto it = sql::HeapTable::Scan(db->store(), info->root); it.Valid();
       it.Next()) {
    RQL_ASSIGN_OR_RETURN(Row row, sql::DecodeRow(it.record()));
    Row key;
    key.reserve(index->column_idx.size() + 1);
    for (int idx : index->column_idx) {
      key.push_back(row[static_cast<size_t>(idx)]);
    }
    key.push_back(Value::Integer(static_cast<int64_t>(it.rid())));
    RQL_RETURN_IF_ERROR(tree.Insert(key, it.rid()));
  }
  return Status::OK();
}

/// One result-table row with its heap position and its record's length,
/// which is its slot's size.
struct StoredRow {
  sql::Rid rid;
  Row row;
  size_t bytes = 0;
};

/// All rows of `table` whose values on the index's columns equal `prefix`,
/// in index order: by key under CompareValues, then by rid.
Result<std::vector<StoredRow>> ProbeByPrefix(sql::Database* db,
                                             const sql::IndexInfo* index,
                                             const Row& prefix) {
  std::vector<StoredRow> matches;
  RQL_ASSIGN_OR_RETURN(sql::BTree::Iterator it,
                       sql::BTree::Seek(db->store(), index->root, prefix));
  for (; it.Valid(); it.Next()) {
    const Row& key = it.key();
    if (key.size() < prefix.size()) break;
    bool equal = true;
    for (size_t i = 0; i < prefix.size(); ++i) {
      if (sql::CompareValues(key[i], prefix[i]) != 0) {
        equal = false;
        break;
      }
    }
    if (!equal) break;
    RQL_ASSIGN_OR_RETURN(std::string record,
                         sql::HeapTable::Get(db->store(), it.value()));
    RQL_ASSIGN_OR_RETURN(Row row, sql::DecodeRow(record));
    matches.push_back(StoredRow{it.value(), std::move(row), record.size()});
  }
  RQL_RETURN_IF_ERROR(it.status());
  return matches;
}

/// True when sql::CompareRows orders keys holding `key`'s values as a
/// strict weak order, which an ordered map needs. A REAL breaks it when it
/// is NaN (equal to every number) or a finite value of magnitude 2^53 or
/// more (equal, through AsDouble, to several distinct INTEGERs).
bool StrictlyOrdered(const Row& key) {
  for (const Value& v : key) {
    if (v.type() != sql::ValueType::kReal) continue;
    double x = v.real();
    if (std::isnan(x)) return false;
    if (std::isfinite(x) && std::fabs(x) >= 9007199254740992.0) return false;
  }
  return true;
}

/// kFast's in-memory stand-in for probing an AggregateDataInTable result
/// table's `<table>_rql_idx` index (RqlProfile::kFast): the table's rows
/// grouped by their indexed columns, in a hash map. Keys are equal when
/// sql::CompareRows, the B-tree's own comparator, says so, so INTEGER 1
/// and REAL 1.0, or two NULLs, land in one group exactly as they match
/// one probe; only StrictlyOrdered keys may enter, and on those that
/// equality is an equivalence. A group lists its rows in rid order, the
/// order the probe returns them in, each with its slot's size. The fold
/// keeps the directory in step with every write it issues.
class GroupDirectory {
 public:
  struct Group {
    /// Ascending rid: rows.front() is the probe's first match.
    std::vector<StoredRow> rows;

    void Add(StoredRow row) {
      auto at = std::upper_bound(
          rows.begin(), rows.end(), row.rid,
          [](sql::Rid r, const StoredRow& s) { return r < s.rid; });
      rows.insert(at, std::move(row));
    }

    /// rows[i] moved to `rid`: re-sorts it.
    void Move(size_t i, sql::Rid rid) {
      StoredRow row = std::move(rows[i]);
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(i));
      row.rid = rid;
      Add(std::move(row));
    }
  };

  /// The group of `key`, created empty if absent. Fails once the
  /// directory was discarded.
  Result<Group*> Get(const Row& key) {
    if (discarded_) {
      return Status::Internal(
          "result fold state was discarded by a failed iteration");
    }
    auto it = groups_.find(key);
    if (it == groups_.end()) it = groups_.emplace(key, Group()).first;
    return &it->second;
  }

  /// Drops every group: after a rolled-back iteration they describe
  /// writes the result table no longer holds.
  void Discard() {
    groups_.clear();
    discarded_ = true;
  }

 private:
  /// Agrees with KeyEqual: numbers hash by their AsDouble value, with
  /// -0.0 as 0.0, so an INTEGER and the REAL CompareRows holds equal to
  /// it hash alike.
  struct KeyHash {
    size_t operator()(const Row& key) const {
      size_t h = key.size();
      for (const Value& v : key) {
        size_t x = 0;
        switch (v.type()) {
          case sql::ValueType::kNull:
            break;
          case sql::ValueType::kInteger:
          case sql::ValueType::kReal: {
            double d = v.AsDouble();
            x = std::hash<double>{}(d == 0.0 ? 0.0 : d);
            break;
          }
          case sql::ValueType::kText:
            x = std::hash<std::string>{}(v.text());
            break;
        }
        h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  struct KeyEqual {
    bool operator()(const Row& a, const Row& b) const {
      return sql::CompareRows(a, b) == 0;
    }
  };
  std::unordered_map<Row, Group, KeyHash, KeyEqual> groups_;
  bool discarded_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Mechanism states
// ---------------------------------------------------------------------------

/// Shared per-run state of one mechanism invocation; subclasses implement
/// the "loop body" result processing of Figure 5.
class RqlEngine::MechanismState {
 public:
  MechanismState(RqlEngine* engine, std::string qq, std::string table)
      : engine_(engine),
        qq_(std::move(qq)),
        table_(std::move(table)),
        uses_current_snapshot_(ReplaceCurrentSnapshot(qq_, 1) != qq_) {}
  virtual ~MechanismState() = default;

  virtual Status OnRow(retro::SnapshotId snap,
                       const std::vector<std::string>& cols,
                       const Row& row) = 0;
  virtual Status OnIterationEnd(retro::SnapshotId snap) {
    (void)snap;
    return Status::OK();
  }
  virtual Status Finish() { return Status::OK(); }

  /// Whether results may be produced by concurrent Qq evaluation and
  /// replayed in order (false for order-*processing*-dependent states
  /// that also mutate shared structures between iterations).
  virtual bool SupportsParallel() const { return false; }

  /// Best-effort cleanup after a failed run: drops the result table when
  /// this run created it. Dropping the table also drops the transient
  /// `<table>_rql_idx` covering index, so a failed mechanism leaves the
  /// metadata database as it found it.
  void DiscardOnFailure() {
    if (!table_created_) return;
    (void)meta()->Exec("DROP TABLE IF EXISTS " + table_);
    table_created_ = false;
  }

  /// Ends the metadata transaction one iteration's fold ran in, with the
  /// fold's outcome `s`: flushes the overwrite queue and commits on
  /// success, rolls back on failure. A failed iteration also drops the
  /// queue and discards the directory, which described the rolled-back
  /// writes.
  Status EndFoldTransaction(Status s) {
    if (s.ok()) s = FlushOverwrites();
    if (s.ok()) {
      s = meta()->Exec("COMMIT");
    } else {
      (void)meta()->Exec("ROLLBACK");
    }
    if (!s.ok()) {
      pending_.clear();
      directory_.Discard();
    }
    return s;
  }

  /// Moves per-iteration result-table counters into `iter`.
  void CollectCounters(RqlIterationStats* iter) {
    iter->result_probes = probes_;
    iter->result_inserts = inserts_;
    iter->result_updates = updates_;
    probes_ = inserts_ = updates_ = 0;
  }

  const std::string& qq() const { return qq_; }
  const std::string& table() const { return table_; }

  /// Whether Qq textually uses current_snapshot() — its result then varies
  /// per snapshot even on identical data, so the delta fast path is never
  /// sound.
  bool UsesCurrentSnapshot() const { return uses_current_snapshot_; }

  /// Stable mechanism name salted into the cross-run memo fingerprint:
  /// the same Qq driven by two different mechanisms must produce two
  /// different memo keys (memo_table.h).
  virtual const char* MechanismName() const = 0;

  /// Lazily computed memo key half: FNV-1a over the canonicalized Qq,
  /// salted with MechanismName(). Computed once per state, on the
  /// original (unrewritten) Qq text, so every execution path derives the
  /// identical key. A parallel run computes it before its workers start.
  Result<uint64_t> MemoFingerprint() {
    if (!memo_fp_ready_) {
      RQL_ASSIGN_OR_RETURN(memo_fp_,
                           sql::QueryFingerprint(qq_, MechanismName()));
      memo_fp_ready_ = true;
    }
    return memo_fp_;
  }

 protected:
  sql::Database* meta() { return engine_->meta_db_; }

  Status EnsureTable(const std::vector<std::string>& cols, const Row& row) {
    if (table_created_) return Status::OK();
    RQL_RETURN_IF_ERROR(
        meta()->catalog()->CreateTable(table_, SchemaFrom(cols, row)));
    table_created_ = true;
    return Status::OK();
  }

  std::string IndexName() const { return table_ + "_rql_idx"; }

  /// The directory group of `key`, or null when this state probes the
  /// index instead (kPaperFaithful, sort-merge, CollateDataIntoIntervals).
  /// A key the directory cannot order strictly switches the rest of the
  /// run to the index probe; the index, kept under both profiles, already
  /// holds every row, so the output stays the probe's.
  Result<GroupDirectory::Group*> DirectoryGroup(const Row& key) {
    if (use_directory_ && !StrictlyOrdered(key)) {
      // The probe reads the result table, which must hold every write.
      RQL_RETURN_IF_ERROR(FlushOverwrites());
      use_directory_ = false;
      directory_ = GroupDirectory();
    }
    if (!use_directory_) return static_cast<GroupDirectory::Group*>(nullptr);
    return directory_.Get(key);
  }

  /// The result-table rows whose indexed columns equal `key`, smallest rid
  /// first: `group`'s rows under kFast, else the rows an index probe
  /// decodes into *probed. One call counts as one probe.
  Result<const std::vector<StoredRow>*> Matches(
      const Row& key, GroupDirectory::Group* group,
      std::vector<StoredRow>* probed) {
    ++probes_;
    if (group != nullptr) return &group->rows;
    const sql::IndexInfo* index =
        meta()->catalog()->data().FindIndex(IndexName());
    RQL_ASSIGN_OR_RETURN(*probed, ProbeByPrefix(meta(), index, key));
    return probed;
  }

  Status AppendResult(GroupDirectory::Group* group, const Row& row) {
    ++inserts_;
    // The append fills, and may compact, the tail page: the queued
    // overwrites land first.
    RQL_RETURN_IF_ERROR(FlushOverwrites());
    RQL_ASSIGN_OR_RETURN(sql::Rid rid, meta()->AppendRow(table_, row));
    if (group != nullptr) {
      group->Add(StoredRow{rid, row, sql::EncodeRow(row).size()});
    }
    return Status::OK();
  }

  /// Rewrites the stored row `match` to `updated` (the index probe's
  /// fold).
  Status UpdateResult(const StoredRow& match, Row updated) {
    ++updates_;
    return meta()->UpdateRowAt(table_, match.rid, match.row, updated).status();
  }

  /// kFast: writes back `group`'s row `i`, which the fold changed in place
  /// in its aggregate columns only. A record that still fits its slot
  /// joins the overwrite queue; one that grew relocates through
  /// UpdateRowAt once the queue is flushed.
  Status UpdateResult(GroupDirectory::Group* group, size_t i) {
    ++updates_;
    StoredRow& stored = group->rows[i];
    std::string record = sql::EncodeRow(stored.row);
    const size_t bytes = stored.bytes;
    stored.bytes = record.size();
    if (record.size() <= bytes) {
      pending_.push_back({stored.rid, std::move(record)});
      return Status::OK();
    }
    RQL_RETURN_IF_ERROR(FlushOverwrites());
    // The row is its own old image: its indexed columns are unchanged.
    RQL_ASSIGN_OR_RETURN(
        sql::Rid rid,
        meta()->UpdateRowAt(table_, stored.rid, stored.row, stored.row));
    if (rid != stored.rid) group->Move(i, rid);
    return Status::OK();
  }

  /// Applies the queued in-place overwrites in order, one read and one
  /// write per touched page.
  Status FlushOverwrites() {
    if (pending_.empty()) return Status::OK();
    Status s = meta()->OverwriteRows(table_, pending_);
    pending_.clear();
    return s;
  }

  RqlEngine* engine_;
  std::string qq_;
  std::string table_;
  bool table_created_ = false;
  int64_t probes_ = 0;
  int64_t inserts_ = 0;
  int64_t updates_ = 0;
  const bool uses_current_snapshot_;
  uint64_t memo_fp_ = 0;
  bool memo_fp_ready_ = false;
  /// kFast's AggregateDataInTable index-probe fold: the result table's
  /// rows by indexed columns, read instead of the `<table>_rql_idx`
  /// B-tree.
  bool use_directory_ = false;
  GroupDirectory directory_;
  /// kFast's in-place directory-row writes not yet applied, in fold
  /// order. Flushed before anything that reads or reshapes the result
  /// table and at the end of every iteration, so it never outlives the
  /// iteration's transaction.
  std::vector<sql::RecordOverwrite> pending_;
};

/// Collate Data: append every Qq row to T.
class RqlEngine::CollateState : public MechanismState {
 public:
  using MechanismState::MechanismState;

  Status OnRow(retro::SnapshotId, const std::vector<std::string>& cols,
               const Row& row) override {
    RQL_RETURN_IF_ERROR(EnsureTable(cols, row));
    ++inserts_;
    return meta()->AppendRow(table_, row).status();
  }

  bool SupportsParallel() const override { return true; }

  const char* MechanismName() const override { return "CollateData"; }
};

/// Aggregate Data In Variable: fold a single value per snapshot.
class RqlEngine::AggVariableState : public MechanismState {
 public:
  AggVariableState(RqlEngine* engine, std::string qq, std::string table,
                   RqlAggFunc func)
      : MechanismState(engine, std::move(qq), std::move(table)),
        func_(func) {}

  Status OnRow(retro::SnapshotId, const std::vector<std::string>& cols,
               const Row& row) override {
    if (row.size() != 1) {
      return Status::InvalidArgument(
          "AggregateDataInVariable requires Qq to return a single column");
    }
    if (row_this_iteration_) {
      return Status::InvalidArgument(
          "AggregateDataInVariable requires Qq to return a single row");
    }
    row_this_iteration_ = true;
    if (column_name_.empty() && !cols.empty()) column_name_ = cols[0];
    if (func_ == RqlAggFunc::kAvg) {
      avg_.Add(row[0]);
      return Status::OK();
    }
    RQL_ASSIGN_OR_RETURN(acc_, RqlCombine(func_, acc_, row[0]));
    return Status::OK();
  }

  Status OnIterationEnd(retro::SnapshotId) override {
    row_this_iteration_ = false;
    return Status::OK();
  }

  Status Finish() override {
    Value final = func_ == RqlAggFunc::kAvg ? avg_.Final() : acc_;
    std::string col = column_name_.empty() ? "value" : column_name_;
    RQL_RETURN_IF_ERROR(EnsureTable({col}, {final}));
    ++inserts_;
    return meta()->AppendRow(table_, {final}).status();
  }

  /// Running value (exposed so the UDF form can return it per iteration).
  Value Current() const {
    return func_ == RqlAggFunc::kAvg ? avg_.Final() : acc_;
  }

  bool SupportsParallel() const override { return true; }

  const char* MechanismName() const override {
    return "AggregateDataInVariable";
  }

 private:
  RqlAggFunc func_;
  Value acc_;  // NULL = identity
  AvgState avg_;
  std::string column_name_;
  bool row_this_iteration_ = false;
};

/// Aggregate Data In Table: an across-time GROUP BY. Grouping columns are
/// the Qq output columns not named in the (column, func) pairs.
class RqlEngine::AggTableState : public MechanismState {
 public:
  AggTableState(RqlEngine* engine, std::string qq, std::string table,
                std::vector<ColFuncPair> pairs)
      : MechanismState(engine, std::move(qq), std::move(table)),
        pairs_(std::move(pairs)) {}

  Status OnRow(retro::SnapshotId, const std::vector<std::string>& cols,
               const Row& row) override {
    if (!layout_resolved_) {
      RQL_RETURN_IF_ERROR(ResolveLayout(cols));
      RQL_RETURN_IF_ERROR(EnsureTable(cols, row));
      strategy_ = engine_->options().agg_table_strategy;
      use_directory_ = strategy_ == AggTableStrategy::kIndexProbe &&
                       engine_->options().profile == RqlProfile::kFast;
    }
    if (strategy_ == AggTableStrategy::kSortMerge && first_done_) {
      // Sort-merge: buffer the iteration's batch; merge at iteration end.
      batch_.push_back(row);
      return Status::OK();
    }
    const Row& key = GroupKeyOf(row);
    RQL_ASSIGN_OR_RETURN(GroupDirectory::Group * group, DirectoryGroup(key));
    if (!first_done_) {
      // First (cold) iteration: plain inserts; the index (index-probe
      // strategy only) is built at the end of the iteration (Fig. 12's
      // costlier cold iteration).
      SeedAvg(row);
      return AppendResult(group, row);
    }

    // Subsequent iterations: probe by grouping columns, then update the
    // first match or insert — the across-snapshot aggregation step.
    std::vector<StoredRow> probed;
    RQL_ASSIGN_OR_RETURN(const std::vector<StoredRow>* matches,
                         Matches(key, group, &probed));
    if (matches->empty()) {
      SeedAvg(row);
      return AppendResult(group, row);
    }
    bool changed = false;
    if (group != nullptr) {
      // The directory's copy of the first match combines in place.
      RQL_RETURN_IF_ERROR(CombineInto(row, &group->rows.front().row, &changed));
      return changed ? UpdateResult(group, 0) : Status::OK();
    }
    const StoredRow& match = matches->front();
    Row updated = match.row;
    RQL_RETURN_IF_ERROR(CombineInto(row, &updated, &changed));
    if (!changed) return Status::OK();
    return UpdateResult(match, std::move(updated));
  }

  Status OnIterationEnd(retro::SnapshotId) override {
    RQL_RETURN_IF_ERROR(FlushOverwrites());
    if (strategy_ == AggTableStrategy::kSortMerge) {
      if (!first_done_) {
        first_done_ = table_created_;
        return Status::OK();
      }
      return MergeBatch();
    }
    if (table_created_ && !first_done_) {
      RQL_RETURN_IF_ERROR(CreateAndPopulateIndex(meta(), IndexName(), table_,
                                                 group_cols_));
      first_done_ = true;
    }
    return Status::OK();
  }

  const char* MechanismName() const override {
    return "AggregateDataInTable";
  }

 protected:
  Row GroupKey(const Row& row) const {
    Row key;
    key.reserve(group_idx_.size());
    for (size_t idx : group_idx_) key.push_back(row[idx]);
    return key;
  }

  /// GroupKey(row), built in a buffer reused row after row.
  const Row& GroupKeyOf(const Row& row) {
    key_.resize(group_idx_.size());
    for (size_t i = 0; i < group_idx_.size(); ++i) key_[i] = row[group_idx_[i]];
    return key_;
  }

  /// The AVG (sum, count) slots of stored row `stored`'s group, keyed by
  /// the stored group's encoding. The stored row, not the incoming one,
  /// names the group: a probe matches INTEGER 1 to a stored REAL 1.0,
  /// whose slots SeedAvg filled.
  std::vector<AvgState>& AvgStates(const Row& stored) {
    std::vector<AvgState>& states =
        avg_state_[sql::EncodeRow(GroupKey(stored))];
    if (states.empty()) states.resize(pairs_.size());
    return states;
  }

  /// Combines `incoming` into the stored row `target` (aggregate columns
  /// only); sets *changed when any value moved.
  Status CombineInto(const Row& incoming, Row* target, bool* changed) {
    for (size_t p = 0; p < pairs_.size(); ++p) {
      size_t col = agg_idx_[p];
      Value combined;
      if (pairs_[p].func == RqlAggFunc::kAvg) {
        AvgState& avg = AvgStates(*target)[p];
        avg.Add(incoming[col]);
        combined = avg.Final();
      } else {
        RQL_ASSIGN_OR_RETURN(
            combined,
            RqlCombine(pairs_[p].func, (*target)[col], incoming[col]));
      }
      if (sql::CompareValues(combined, (*target)[col]) != 0) {
        (*target)[col] = std::move(combined);
        *changed = true;
      }
    }
    return Status::OK();
  }

  /// The sort-merge alternative the paper reports as costlier: sort the
  /// batch by grouping columns, merge with the (sorted) result table, and
  /// rewrite the table.
  Status MergeBatch() {
    auto key_less = [this](const Row& a, const Row& b) {
      return sql::CompareRows(GroupKey(a), GroupKey(b)) < 0;
    };
    std::stable_sort(batch_.begin(), batch_.end(), key_less);

    const sql::TableInfo* info = meta()->catalog()->data().FindTable(table_);
    if (info == nullptr) return Status::Internal("result table missing");
    std::vector<std::pair<sql::Rid, Row>> existing;
    for (auto it = sql::HeapTable::Scan(meta()->store(), info->root);
         it.Valid(); it.Next()) {
      RQL_ASSIGN_OR_RETURN(Row row, sql::DecodeRow(it.record()));
      existing.emplace_back(it.rid(), std::move(row));
    }
    std::stable_sort(existing.begin(), existing.end(),
                     [&](const auto& a, const auto& b) {
                       return key_less(a.second, b.second);
                     });

    std::vector<Row> merged;
    merged.reserve(existing.size() + batch_.size());
    size_t i = 0, j = 0;
    while (i < existing.size() || j < batch_.size()) {
      ++probes_;
      int cmp;
      if (i >= existing.size()) {
        cmp = 1;
      } else if (j >= batch_.size()) {
        cmp = -1;
      } else {
        cmp = sql::CompareRows(GroupKey(existing[i].second),
                               GroupKey(batch_[j]));
      }
      if (cmp < 0) {
        merged.push_back(std::move(existing[i].second));
        ++i;
      } else if (cmp > 0) {
        SeedAvg(batch_[j]);
        merged.push_back(std::move(batch_[j]));
        ++inserts_;
        ++j;
      } else {
        Row target = std::move(existing[i].second);
        bool changed = false;
        RQL_RETURN_IF_ERROR(CombineInto(batch_[j], &target, &changed));
        if (changed) ++updates_;
        merged.push_back(std::move(target));
        ++i;
        ++j;
      }
    }
    batch_.clear();

    // Rewrite the result table with the merged contents.
    sql::HeapTable heap(meta()->store(), info->root);
    for (const auto& [rid, row] : existing) {
      Status s = heap.Delete(rid);
      // Rows moved into `merged` were emptied; rids are still valid.
      if (!s.ok() && !s.IsNotFound()) return s;
    }
    for (const Row& row : merged) {
      RQL_RETURN_IF_ERROR(heap.Insert(sql::EncodeRow(row)).status());
    }
    return Status::OK();
  }

  Status ResolveLayout(const std::vector<std::string>& cols) {
    for (const ColFuncPair& pair : pairs_) {
      bool found = false;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (sql::IdentEquals(cols[i], pair.column)) {
          agg_idx_.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("aggregate column not in Qq output: " +
                                       pair.column);
      }
    }
    for (size_t i = 0; i < cols.size(); ++i) {
      if (std::find(agg_idx_.begin(), agg_idx_.end(), i) == agg_idx_.end()) {
        group_idx_.push_back(i);
        group_cols_.push_back(cols[i]);
      }
    }
    if (group_cols_.empty()) {
      return Status::InvalidArgument(
          "AggregateDataInTable requires at least one grouping column");
    }
    layout_resolved_ = true;
    return Status::OK();
  }

  /// Seeds the AVG slots of a row about to be inserted.
  void SeedAvg(const Row& row) {
    bool any_avg = false;
    for (const ColFuncPair& pair : pairs_) {
      if (pair.func == RqlAggFunc::kAvg) any_avg = true;
    }
    if (!any_avg) return;
    std::vector<AvgState>& states = AvgStates(row);
    for (size_t p = 0; p < pairs_.size(); ++p) {
      if (pairs_[p].func == RqlAggFunc::kAvg) {
        states[p].Add(row[agg_idx_[p]]);
      }
    }
  }

  std::vector<ColFuncPair> pairs_;
  std::vector<size_t> agg_idx_;    // positions of aggregated columns
  std::vector<size_t> group_idx_;  // positions of grouping columns
  std::vector<std::string> group_cols_;
  bool layout_resolved_ = false;
  // First (cold) iteration finished: result table populated, and — for
  // the index-probe strategy — its index built.
  bool first_done_ = false;
  AggTableStrategy strategy_ = AggTableStrategy::kIndexProbe;
  std::vector<Row> batch_;  // sort-merge: the current iteration's rows
  Row key_;                 // GroupKeyOf's buffer
  // AVG special case: per stored group encoding, the running
  // (sum, count) per pair slot.
  std::unordered_map<std::string, std::vector<AvgState>> avg_state_;
};

/// Collate Data Into Intervals: compact consecutive appearances of a
/// record into [start_snapshot, end_snapshot] lifetimes.
class RqlEngine::IntervalState : public MechanismState {
 public:
  using MechanismState::MechanismState;

  Status OnRow(retro::SnapshotId snap, const std::vector<std::string>& cols,
               const Row& row) override {
    if (!table_created_) {
      group_width_ = row.size();
      std::vector<std::string> all_cols = cols;
      all_cols.push_back("start_snapshot");
      all_cols.push_back("end_snapshot");
      Row sample = row;
      sample.push_back(Value::Integer(snap));
      sample.push_back(Value::Integer(snap));
      RQL_RETURN_IF_ERROR(EnsureTable(all_cols, sample));
      group_cols_ = cols;
    }
    Row full = row;
    full.push_back(Value::Integer(snap));
    full.push_back(Value::Integer(snap));

    if (!index_created_) return AppendResult(nullptr, full);
    std::vector<StoredRow> probed;
    RQL_ASSIGN_OR_RETURN(const std::vector<StoredRow>* matches,
                         Matches(row, nullptr, &probed));
    // Extend the lifetime whose end is the previous iteration's snapshot;
    // otherwise a new lifetime interval starts.
    for (const StoredRow& match : *matches) {
      const Value& end = match.row[group_width_ + 1];
      if (end.type() == sql::ValueType::kInteger &&
          end.integer() == static_cast<int64_t>(prev_snap_)) {
        Row updated = match.row;
        updated[group_width_ + 1] = Value::Integer(snap);
        return UpdateResult(match, std::move(updated));
      }
    }
    return AppendResult(nullptr, full);
  }

  Status OnIterationEnd(retro::SnapshotId snap) override {
    if (table_created_ && !index_created_) {
      RQL_RETURN_IF_ERROR(CreateAndPopulateIndex(meta(), IndexName(), table_,
                                                 group_cols_));
      index_created_ = true;
    }
    prev_snap_ = snap;
    return Status::OK();
  }

  const char* MechanismName() const override {
    return "CollateDataIntoIntervals";
  }

 private:
  size_t group_width_ = 0;
  std::vector<std::string> group_cols_;
  bool index_created_ = false;
  retro::SnapshotId prev_snap_ = retro::kNoSnapshot;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

const char* RqlProfileName(RqlProfile profile) {
  return profile == RqlProfile::kFast ? "fast" : "paper_faithful";
}

const char* RqlCachePolicyName(RqlCachePolicy policy) {
  switch (policy) {
    case RqlCachePolicy::kColdPerRun:
      return "cold_per_run";
    case RqlCachePolicy::kWarm:
      return "warm";
    case RqlCachePolicy::kColdPerIteration:
      return "cold_per_iteration";
  }
  return "unknown";
}

RqlEngine::RqlEngine(sql::Database* data_db, sql::Database* meta_db,
                     RqlOptions options)
    : data_db_(data_db), meta_db_(meta_db), options_(std::move(options)) {}

RqlEngine::~RqlEngine() = default;

Status RqlEngine::EnsureSnapIds() {
  return meta_db_->Exec(
      "CREATE TABLE IF NOT EXISTS SnapIds "
      "(snap_id INTEGER, snap_ts TEXT, label TEXT)");
}

Result<retro::SnapshotId> RqlEngine::CommitWithSnapshot(
    const std::string& timestamp, const std::string& label) {
  RQL_RETURN_IF_ERROR(EnsureSnapIds());
  if (data_db_->store()->in_transaction()) {
    RQL_RETURN_IF_ERROR(data_db_->Exec("COMMIT WITH SNAPSHOT"));
  } else {
    RQL_RETURN_IF_ERROR(data_db_->Exec("BEGIN; COMMIT WITH SNAPSHOT;"));
  }
  retro::SnapshotId snap = data_db_->last_declared_snapshot();
  // SnapIds updates are transactional in the metadata database.
  RQL_RETURN_IF_ERROR(
      meta_db_->AppendRow("SnapIds",
                          {Value::Integer(snap), Value::Text(timestamp),
                           Value::Text(label)})
          .status());
  return snap;
}

Status RqlEngine::TruncateHistory(retro::SnapshotId keep_from) {
  RQL_RETURN_IF_ERROR(data_db_->store()->TruncateHistory(keep_from));
  // Dropped snapshots can never validate again; purge their memo
  // registrations (persistently) so the table's bytes go to live entries.
  // Survivors stay: their read-set validation already catches the Pagelog
  // offsets compaction moved (conservative miss, then republish).
  if (options_.memo != nullptr) {
    RQL_RETURN_IF_ERROR(options_.memo->InvalidateBelow(keep_from));
  }
  // Compaction rebased Pagelog offsets — the shared cache's version keys.
  // Conservative contract, like MemoTable::InvalidateBelow: drop every
  // entry (runs still holding one keep it alive via their shared_ptr);
  // survivors re-decode and republish on next access.
  if (options_.shared_scan_cache != nullptr) {
    options_.shared_scan_cache->OnTruncateHistory(keep_from);
  }
  // The snapshots are gone; drop their SnapIds rows so Qs never selects
  // them. (SnapIds lives at application level, as in the paper.)
  return meta_db_->Exec("DELETE FROM SnapIds WHERE snap_id < " +
                        std::to_string(keep_from));
}

namespace {

/// If `sql[i]` starts a SQL comment ("--" to end of line, or a "/* */"
/// block), returns the index just past it; otherwise returns `i`. The
/// textual Qq rewrites use this so commented-out SELECT keywords and
/// current_snapshot() calls are never rewritten.
size_t SkipSqlComment(const std::string& sql, size_t i) {
  if (i + 1 >= sql.size()) return i;
  if (sql[i] == '-' && sql[i + 1] == '-') {
    i += 2;
    while (i < sql.size() && sql[i] != '\n') ++i;
    return i;
  }
  if (sql[i] == '/' && sql[i + 1] == '*') {
    i += 2;
    while (i + 1 < sql.size() && !(sql[i] == '*' && sql[i + 1] == '/')) ++i;
    return i + 1 < sql.size() ? i + 2 : sql.size();
  }
  return i;
}

}  // namespace

std::string RqlEngine::InjectAsOf(const std::string& qq,
                                  retro::SnapshotId snap) {
  // Find the first top-level SELECT keyword outside quotes and comments
  // and splice in the Retro extension. Quote tracking covers both '...'
  // string literals and "..." quoted identifiers (the lexer accepts
  // both); the doubled-quote escape ('' / "") closes and immediately
  // reopens a run, which the toggle handles.
  char quote = 0;
  for (size_t i = 0; i + 6 <= qq.size(); ++i) {
    char c = qq[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      continue;
    }
    size_t skipped = SkipSqlComment(qq, i);
    if (skipped != i) {
      i = skipped - 1;  // the loop's ++i lands just past the comment
      continue;
    }
    auto is_word = [](char ch) {
      return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
    };
    if ((i == 0 || !is_word(qq[i - 1])) &&
        std::toupper(static_cast<unsigned char>(qq[i])) == 'S') {
      static constexpr char kSelect[] = "SELECT";
      bool match = true;
      for (int k = 0; k < 6; ++k) {
        if (std::toupper(static_cast<unsigned char>(qq[i + k])) !=
            kSelect[k]) {
          match = false;
          break;
        }
      }
      if (match && (i + 6 == qq.size() || !is_word(qq[i + 6]))) {
        return qq.substr(0, i + 6) + " AS OF " + std::to_string(snap) +
               qq.substr(i + 6);
      }
    }
  }
  return qq;  // no SELECT found; leave unchanged (will fail to parse)
}

std::string RqlEngine::ReplaceCurrentSnapshot(const std::string& qq,
                                              retro::SnapshotId snap) {
  static constexpr char kName[] = "current_snapshot";
  constexpr size_t kNameLen = sizeof(kName) - 1;
  std::string out;
  out.reserve(qq.size());
  // Matches inside '...' string literals and "..." quoted identifiers
  // must pass through untouched: a Qq like `WHERE tag =
  // 'current_snapshot()'` is comparing against a plain string, and
  // rewriting it would corrupt the literal (and wrongly disable the
  // memo's delta fast path via the textual-use probe). The doubled
  // quote escape ('' / "") closes and reopens a run, which the per-
  // character toggle handles.
  char quote = 0;
  auto is_word = [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
  };
  for (size_t i = 0; i < qq.size();) {
    char c = qq[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
      out += c;
      ++i;
      continue;
    }
    size_t skipped = SkipSqlComment(qq, i);
    if (skipped != i) {
      out.append(qq, i, skipped - i);  // comments pass through verbatim
      i = skipped;
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      out += c;
      ++i;
      continue;
    }
    auto name_matches = [&]() {
      if (i + kNameLen > qq.size()) return false;
      for (size_t n = 0; n < kNameLen; ++n) {
        if (std::tolower(static_cast<unsigned char>(qq[i + n])) !=
            kName[n]) {
          return false;
        }
      }
      return true;
    };
    if ((i == 0 || !is_word(qq[i - 1])) && name_matches()) {
      // Match optional whitespace and "()" after the name.
      size_t j = i + kNameLen;
      while (j < qq.size() &&
             std::isspace(static_cast<unsigned char>(qq[j]))) {
        ++j;
      }
      if (j < qq.size() && qq[j] == '(') {
        size_t k = j + 1;
        while (k < qq.size() &&
               std::isspace(static_cast<unsigned char>(qq[k]))) {
          ++k;
        }
        if (k < qq.size() && qq[k] == ')') {
          out += std::to_string(snap);
          i = k + 1;
          continue;
        }
      }
    }
    out += c;
    ++i;
  }
  return out;
}

void RqlEngine::PublishRunMetrics() {
  retro::MetricsRegistry* reg = metrics();
  auto add = [reg](const char* name, int64_t v) {
    // Always touch the counter so every rql.* name exists (at zero) in
    // snapshots even when the run never exercised it.
    reg->GetCounter(name)->Add(v);
  };
  add("rql.runs", 1);
  add("rql.parallel_runs", stats_.parallel ? 1 : 0);
  add("rql.iterations", static_cast<int64_t>(stats_.iterations.size()));
  add("rql.iterations_skipped", stats_.iterations_skipped);
  add("rql.qq_parse_count", stats_.qq_parse_count);
  add("rql.extra_agg_us", stats_.extra_agg_us);
  add("rql.parallel_wall_us", stats_.parallel_wall_us);
  add("rql.parallel_lock_wait_us", stats_.parallel_lock_wait_us);
  add("rql.coalesced_loads", stats_.coalesced_loads);
  add("rql.archive_read_retries", stats_.archive_read_retries);
  add("rql.shared_page_hits", stats_.shared_page_hits);
  // Scan-cache traffic under the rql.scan_cache.* prefix the shared
  // cache's own gauges (bytes, entries, evictions — registered by the
  // caller via SharedScanCache::RegisterMetrics) share. These counters
  // are run-attributed; the gauges are cache-lifetime totals.
  add("rql.scan_cache.shared_hits", stats_.shared_page_hits);
  add("rql.scan_cache.misses", stats_.scan_cache_misses);
  add("rql.scan_cache.coalesced_decodes", stats_.coalesced_decodes);
  add("rql.total_us", stats_.TotalUs());

  // Per-iteration sums, published from the very numbers last_run_stats()
  // reports, so a registry delta over one run equals the legacy struct
  // exactly (the equality metrics_test and the property test assert).
  int64_t io_us = 0, spt_build_us = 0, query_eval_us = 0;
  int64_t index_create_us = 0, udf_us = 0;
  int64_t pagelog_pages = 0, db_pages = 0, cache_hits = 0, qq_rows = 0;
  int64_t result_probes = 0, result_inserts = 0, result_updates = 0;
  int64_t maplog_pages = 0, spt_delta_entries = 0, plan_cache_hits = 0;
  int64_t delta_pages_scanned = 0;
  int64_t batches_scanned = 0, batch_rows = 0, batch_fallback_rows = 0;
  int64_t memo_hits = 0, memo_misses = 0, memo_bytes = 0;
  int64_t memo_evictions = 0;
  retro::MetricsRegistry::Histogram* iter_hist =
      reg->GetHistogram("rql.iteration_us");
  for (const RqlIterationStats& it : stats_.iterations) {
    io_us += it.io_us;
    spt_build_us += it.spt_build_us;
    query_eval_us += it.query_eval_us;
    index_create_us += it.index_create_us;
    udf_us += it.udf_us;
    pagelog_pages += it.pagelog_pages;
    db_pages += it.db_pages;
    cache_hits += it.cache_hits;
    qq_rows += it.qq_rows;
    result_probes += it.result_probes;
    result_inserts += it.result_inserts;
    result_updates += it.result_updates;
    maplog_pages += it.maplog_pages;
    spt_delta_entries += it.spt_delta_entries;
    plan_cache_hits += it.plan_cache_hits;
    delta_pages_scanned += it.delta_pages_scanned;
    batches_scanned += it.batches_scanned;
    batch_rows += it.batch_rows;
    batch_fallback_rows += it.batch_fallback_rows;
    memo_hits += it.memo_hits;
    memo_misses += it.memo_misses;
    memo_bytes += it.memo_bytes;
    memo_evictions += it.memo_evictions;
    iter_hist->ObserveUs(it.TotalUs());
  }
  add("rql.io_us", io_us);
  add("rql.spt_build_us", spt_build_us);
  add("rql.query_eval_us", query_eval_us);
  add("rql.index_create_us", index_create_us);
  add("rql.udf_us", udf_us);
  add("rql.pagelog_pages", pagelog_pages);
  add("rql.db_pages", db_pages);
  add("rql.cache_hits", cache_hits);
  add("rql.qq_rows", qq_rows);
  add("rql.result_probes", result_probes);
  add("rql.result_inserts", result_inserts);
  add("rql.result_updates", result_updates);
  add("rql.maplog_pages", maplog_pages);
  add("rql.spt_delta_entries", spt_delta_entries);
  add("rql.plan_cache_hits", plan_cache_hits);
  add("rql.delta_pages_scanned", delta_pages_scanned);
  add("rql.batches_scanned", batches_scanned);
  add("rql.batch_rows", batch_rows);
  add("rql.batch_fallback_rows", batch_fallback_rows);
  add("rql.memo_hits", memo_hits);
  add("rql.memo_misses", memo_misses);
  add("rql.memo_bytes", memo_bytes);
  add("rql.memo_evictions", memo_evictions);
  reg->GetHistogram("rql.run_us")->ObserveUs(stats_.TotalUs());
}

namespace {

/// Bit encoding of the profile and opt-in flags for the kRunBegin trace
/// event (bits 4, 8, 16 and 256 are retired; see trace.h). kFast sets the
/// bits of the three flags it replaced (1 | 2 | 32), and a memo the bit of
/// the flag it replaced (64), so older traces still read.
int64_t OptionFlagBits(const RqlOptions& o) {
  return (o.profile == RqlProfile::kFast ? 1 | 2 | 32 : 0) |
         (o.memo != nullptr ? 64 : 0) |
         (o.shared_scan_cache != nullptr ? 128 : 0);
}

/// Rejects invalid option combinations before a run touches anything;
/// `parallel` says whether the run would take the parallel path. Every
/// opt-in mechanism that would falsify the all-cold baseline of
/// RqlCachePolicy::kColdPerIteration is listed here once, with the reason.
Status ValidateRunOptions(const RqlOptions& o, bool parallel) {
  const bool cold = o.cache_policy == RqlCachePolicy::kColdPerIteration;
  struct Rule {
    bool violated;
    const char* message;
  };
  const Rule rules[] = {
      // Workers share the snapshot cache; a per-iteration clear would race
      // with concurrent readers and silently measure a partially warm cache.
      {cold && parallel,
       "cache_policy kColdPerIteration is incompatible with parallel Qq "
       "evaluation (parallel_workers > 1)"},
      {cold && o.profile == RqlProfile::kFast,
       "cache_policy kColdPerIteration is incompatible with the fast "
       "profile (the all-cold baseline measures the paper-faithful "
       "pipeline)"},
      {cold && o.memo != nullptr,
       "cache_policy kColdPerIteration is incompatible with a memo (a "
       "replayed iteration reads nothing, so the all-cold baseline would "
       "not be measured)"},
      {cold && o.shared_scan_cache != nullptr,
       "cache_policy kColdPerIteration is incompatible with "
       "shared_scan_cache (a store-scoped cache serves pages other runs "
       "decoded, so the all-cold baseline would not be measured)"},
  };
  for (const Rule& rule : rules) {
    if (rule.violated) return Status::InvalidArgument(rule.message);
  }
  return Status::OK();
}

/// True when every page version the memo entry recorded equals the
/// snapshot's current resolution through `set`, positioned at the
/// snapshot — the content-identity test that makes replaying the entry
/// sound. Any mismatch (a page rewritten inside the read set, an archive
/// offset moved by compaction, a formerly db-shared page since captured)
/// is a conservative miss.
bool ValidateMemoEntry(const retro::SnapshotSet& set,
                       const retro::MemoEntry& entry) {
  for (const retro::MemoPageVersion& pv : entry.read_set) {
    uint64_t v = 0;
    uint64_t token = set.PageVersion(pv.page, &v)
                         ? v
                         : retro::kMemoDbSharedVersion;
    if (token != pv.version) return false;
  }
  return true;
}

/// True when no page of `delta` is in `entry`'s read set (sorted by page):
/// the pages Qq read map to the same versions at the new snapshot.
bool DeltaMissesReadSet(const std::vector<storage::PageId>& delta,
                        const retro::MemoEntry& entry) {
  const std::vector<retro::MemoPageVersion>& reads = entry.read_set;
  for (storage::PageId page : delta) {
    auto it = std::lower_bound(
        reads.begin(), reads.end(), page,
        [](const retro::MemoPageVersion& pv, storage::PageId p) {
          return pv.page < p;
        });
    if (it != reads.end() && it->page == page) return false;
  }
  return true;
}

/// Decodes a memo entry's stored rows. A decode failure (possible only if
/// the in-memory entry was corrupted past the log checksum) is reported so
/// callers can fall back to executing Qq.
Result<std::vector<Row>> DecodeMemoRows(const retro::MemoEntry& entry) {
  std::vector<Row> rows;
  rows.reserve(entry.rows.size());
  for (const std::string& encoded : entry.rows) {
    RQL_ASSIGN_OR_RETURN(Row row, sql::DecodeRow(encoded));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Builds the publishable memo entry for one executed iteration.
std::shared_ptr<const retro::MemoEntry> MakeMemoEntry(
    uint64_t fingerprint, retro::SnapshotId snap,
    const std::unordered_map<storage::PageId, uint64_t>& versions,
    const std::vector<std::string>& columns, const std::vector<Row>& rows) {
  auto entry = std::make_shared<retro::MemoEntry>();
  entry->fingerprint = fingerprint;
  entry->snapshot = snap;
  entry->read_set.reserve(versions.size());
  for (const auto& [page, token] : versions) {
    entry->read_set.push_back(retro::MemoPageVersion{page, token});
  }
  std::sort(entry->read_set.begin(), entry->read_set.end(),
            [](const retro::MemoPageVersion& a,
               const retro::MemoPageVersion& b) { return a.page < b.page; });
  entry->columns = columns;
  entry->rows.reserve(rows.size());
  for (const Row& row : rows) entry->rows.push_back(sql::EncodeRow(row));
  return entry;
}

/// Gives a parallel worker's attached handle the functions Qq may call on
/// the data handle, keeping the worker's own current_snapshot().
void ShareFunctions(sql::Database* from, sql::Database* to) {
  sql::FunctionDef own = *to->functions()->Find("current_snapshot");
  *to->functions() = *from->functions();
  to->functions()->Register("current_snapshot", own.min_args, own.max_args,
                            std::move(own.fn));
}

}  // namespace

/// Where one driver thread answers iterations. The sequential and UDF-form
/// drivers keep one context per mechanism state on the data handle; a
/// parallel run gives each worker one on its own attached handle.
struct RqlEngine::IterationContext {
  /// The handle Qq executes on. Its current_snapshot(), attached snapshot
  /// set and statement stats belong to this context.
  sql::Database* db = nullptr;
  /// 0 for the sequential and UDF-form contexts, 1-based for parallel
  /// workers (the trace's worker attribution).
  uint16_t worker = 0;
  /// The context's snapshot-set cursor: kFast's incremental SPT and the
  /// memo's per-step Maplog delta; null under kPaperFaithful without a
  /// memo. Attached to `db` while the context answers an iteration, so
  /// Qq's AS OF opens go through it too.
  std::unique_ptr<retro::SnapshotSet> set;
  /// kFast's plan reuse: Qq prepared once and rebound per snapshot. After a
  /// failed Prepare/BindAsOf the context falls back to the paper's textual
  /// rewrite for the rest of the run (plan_failed).
  std::unique_ptr<sql::PreparedStatement> plan;
  bool plan_failed = false;
  /// The delta fast path's predecessor (RqlOptions::memo): the memo entry
  /// of the iteration this context last executed or memo-replayed — its
  /// page-version read set and columns — with its decoded rows. An
  /// iteration whose Maplog delta misses the read set replays the rows;
  /// chained replays keep checking consecutive deltas against the same
  /// read set (induction: the pages Qq depends on are untouched at every
  /// step, and execution is deterministic). Empty until an iteration
  /// executes or memo-replays, and cleared whenever the cursor rebases (no
  /// predecessor delta).
  struct Predecessor {
    std::shared_ptr<const retro::MemoEntry> entry;
    std::shared_ptr<const std::vector<Row>> rows;
  };
  Predecessor prev;
  /// The snapshot of this context's last iteration. A delta is that
  /// iteration's successor step only if the cursor still sits there: an
  /// explicit AS OF inside Qq opens through the cursor too and moves it.
  retro::SnapshotId last_snap = retro::kNoSnapshot;
};

/// One answered iteration, as AnswerIteration leaves it for
/// RecordIteration.
struct RqlEngine::Answer {
  RqlIterationStats iter;
  /// The iteration's store counters: its cursor's Advance plus the views
  /// its Qq statement opened.
  retro::IterationStats store;
  /// Rows still to fold, with their columns; null when they streamed into
  /// the fold while Qq executed. A replay shares both with the memo entry.
  std::shared_ptr<const std::vector<std::string>> columns;
  std::shared_ptr<const std::vector<Row>> rows;
  /// The memo entry to publish: an executed iteration's own, or the
  /// predecessor's a fast-path replay re-keys to its snapshot.
  std::shared_ptr<const retro::MemoEntry> publish;
  /// kIterationSkip: the delta's size; kMemoHit: the validated read set's.
  int64_t replay_trace_arg = 0;
  /// Times the iteration lexed/parsed/planned Qq.
  int64_t qq_parses = 0;
};

/// The setup and teardown of one run, shared by the sequential, parallel
/// and UDF-form drivers. Construction restarts the run's stats and trace.
/// Begin() arms the store once the run has passed validation: the
/// kRunBegin event, the cold start, read retries and the diff-depth feed,
/// and SPT-build sharing under a scan cache. NewContext() arms each handle
/// the run executes on: the scan cache and batch execution (kFast).
/// Destruction disarms whatever was armed, on every exit path. Finish()
/// ends the run's observable life: kRunEnd and the metrics publish.
class RqlEngine::RunScope {
 public:
  explicit RunScope(RqlEngine* engine) : engine_(engine) {
    const RqlOptions& o = engine_->options_;
    engine_->stats_ = RqlRunStats{};
    engine_->trace_on_ = o.trace;
    // Restarted even when tracing is off (at capacity 0, so Emit no-ops):
    // last_run_trace() then always describes the *last* run, never a stale
    // earlier one.
    engine_->trace_.Restart(o.trace ? o.trace_capacity : 0, NowMicros());
    engine_->trace_.SetContext(o.session_id, o.run_id);
  }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  ~RunScope() {
    if (!begun_) return;
    retro::SnapshotStore* store = engine_->data_db_->store();
    for (sql::Database* db : armed_) {
      db->set_snapshot_set(nullptr);
      if (scan_cache_ != nullptr) db->set_scan_cache(nullptr);
      if (batch_hist_ != nullptr) db->set_batch_execution(false);
    }
    store->set_archive_read_retries(0);
    store->set_diff_depth_histogram(nullptr);
  }

  /// Arms the run. `snapshots` is the size of the Qs set; the UDF form
  /// passes 0, since its driving scan feeds iterations one call at a time.
  /// `workers` is the number of threads answering iterations.
  void Begin(size_t snapshots, int workers) {
    const RqlOptions& o = engine_->options_;
    retro::SnapshotStore* store = engine_->data_db_->store();
    begun_ = true;
    if (engine_->trace_on_) {
      engine_->trace_.Emit(RqlTraceEventType::kRunBegin, retro::kNoSnapshot,
                           {static_cast<int64_t>(snapshots), workers,
                            OptionFlagBits(o)});
    }
    if (o.cache_policy != RqlCachePolicy::kWarm) {
      // Cleared before any worker thread is spawned: thread creation gives
      // the happens-before fence that makes the cold start visible to (and
      // not raced by) the parallel phase.
      store->ClearSnapshotCache();
    }
    store->set_archive_read_retries(o.archive_read_retries);
    // Armed for every run: in kDiff mode each archive read reports the
    // diff-chain depth it walked (always 0 in kFull mode — one bucket).
    store->set_diff_depth_histogram(
        engine_->metrics()->GetHistogram("rql.pagelog.diff_depth"));
    if (o.shared_scan_cache != nullptr) {
      // The cache belongs to the caller and may be serving other runs, so
      // it is attached and detached, never cleared. Overlapping runs also
      // share SPT builds; that store-wide switch stays on after the run,
      // since concurrent runs rely on it.
      scan_cache_ = o.shared_scan_cache;
      store->set_share_spt_builds(true);
    }
    const bool fast = o.profile == RqlProfile::kFast;
    if (fast) batch_hist_ = engine_->metrics()->GetHistogram("rql.batch_size");
    // The cursor is kFast's incremental SPT. Memoized runs need it too, for
    // the per-step Maplog delta of the replay fast path; it also makes a
    // memo probe's snapshot open plus the execute-on-miss open of the same
    // id cost one SPT derivation, not two cold builds.
    snapshot_sets_ = fast || o.memo != nullptr;
  }

  /// A new iteration context on `db` for `worker` (0 for the sequential
  /// or UDF-form driver), owned by the run. Arms `db` on first use; a
  /// worker's attached handle also gets the data handle's functions.
  IterationContext* NewContext(sql::Database* db, uint16_t worker) {
    if (std::find(armed_.begin(), armed_.end(), db) == armed_.end()) {
      armed_.push_back(db);
      if (scan_cache_ != nullptr) db->set_scan_cache(scan_cache_);
      if (batch_hist_ != nullptr) db->set_batch_execution(true, batch_hist_);
      if (db != engine_->data_db_) ShareFunctions(engine_->data_db_, db);
    }
    auto ctx = std::make_unique<IterationContext>();
    ctx->db = db;
    ctx->worker = worker;
    if (snapshot_sets_) ctx->set = db->store()->BeginSnapshotSet();
    contexts_.push_back(std::move(ctx));
    return contexts_.back().get();
  }

  /// UDF form: remembers the first failed iteration, after which the run
  /// executes no further iteration and FinishUdfRuns discards it.
  void Fail(const Status& s) {
    if (failure_.ok()) failure_ = s;
  }
  const Status& failure() const { return failure_; }

  /// Ends the run with outcome `s`: emits kRunEnd and publishes the
  /// run's metrics. Call once.
  void Finish(const Status& s) {
    const RqlRunStats& stats = engine_->stats_;
    if (engine_->trace_on_) {
      engine_->trace_.Emit(RqlTraceEventType::kRunEnd, retro::kNoSnapshot,
                           {static_cast<int64_t>(stats.iterations.size()),
                            stats.iterations_skipped, stats.TotalUs(),
                            s.ok() ? 1 : 0});
    }
    engine_->PublishRunMetrics();
  }

 private:
  RqlEngine* engine_;
  bool begun_ = false;
  sql::SharedScanCache* scan_cache_ = nullptr;
  /// Set under kFast, whose batch execution observes it.
  retro::MetricsRegistry::Histogram* batch_hist_ = nullptr;
  bool snapshot_sets_ = false;
  std::vector<sql::Database*> armed_;
  std::vector<std::unique_ptr<IterationContext>> contexts_;
  Status failure_;
};

Status RqlEngine::RunMechanism(const std::string& qs, MechanismState* state) {
  RunScope run(this);
  // A run cancelled before it starts must leave the metadata database
  // untouched (no dropped result table).
  if (CancelRequested()) return Status::Aborted("run cancelled");
  // Validate Qq and Qs before touching the result table: a malformed query
  // must surface before the first iteration and leave the metadata
  // database untouched (no dropped table, no partial output).
  bool single_select = false;
  {
    auto parsed = sql::ParseSql(state->qq());
    if (!parsed.ok()) return parsed.status();
    if (parsed->empty()) return Status::InvalidArgument("Qq is empty");
    single_select = parsed->size() == 1 &&
                    std::holds_alternative<sql::SelectStmt>(parsed->front());
  }
  RQL_ASSIGN_OR_RETURN(sql::QueryResult snaps, meta_db_->Query(qs));
  std::vector<retro::SnapshotId> snap_ids;
  snap_ids.reserve(snaps.rows.size());
  for (const Row& row : snaps.rows) {
    if (row.empty() || !row[0].is_numeric()) {
      return Status::InvalidArgument(
          "Qs must return a column of snapshot identifiers");
    }
    snap_ids.push_back(static_cast<retro::SnapshotId>(row[0].AsInt()));
  }
  // Workers run Qq on attached handles, which serve reads only: a Qq
  // script runs sequentially on the data handle.
  const bool parallel = options_.parallel_workers > 1 &&
                        state->SupportsParallel() && single_select &&
                        snap_ids.size() > 1;
  RQL_RETURN_IF_ERROR(ValidateRunOptions(options_, parallel));
  RQL_RETURN_IF_ERROR(meta_db_->Exec("DROP TABLE IF EXISTS " + state->table()));
  run.Begin(snap_ids.size(), parallel ? options_.parallel_workers : 1);
  Status s = Status::OK();
  if (parallel) {
    s = RunMechanismParallel(snap_ids, state, &run);
  } else {
    IterationContext* ctx = run.NewContext(data_db_, 0);
    for (size_t i = 0; s.ok() && i < snap_ids.size(); ++i) {
      s = RunIteration(ctx, state, snap_ids[i]);
    }
  }
  if (s.ok()) s = state->Finish();
  run.Finish(s);
  // A failed iteration (or Finish) aborts the run with a clean error:
  // drop the partial result table and its transient index.
  if (!s.ok()) state->DiscardOnFailure();
  return s;
}

Status RqlEngine::RunMechanismParallel(
    const std::vector<retro::SnapshotId>& snaps, MechanismState* state,
    RunScope* run) {
  stats_.parallel = true;
  retro::SnapshotStore* store = data_db_->store();
  // Workers read the lazily computed memo key; compute it before they
  // start.
  if (options_.memo != nullptr) {
    RQL_RETURN_IF_ERROR(state->MemoFingerprint().status());
  }
  const int workers = std::min<int>(options_.parallel_workers,
                                    static_cast<int>(snaps.size()));
  std::vector<IterationContext*> contexts;
  for (int w = 0; w < workers; ++w) {
    if (worker_dbs_.size() <= static_cast<size_t>(w)) {
      RQL_ASSIGN_OR_RETURN(std::unique_ptr<sql::Database> db,
                           sql::Database::Attach(store));
      worker_dbs_.push_back(std::move(db));
    }
    contexts.push_back(run->NewContext(worker_dbs_[static_cast<size_t>(w)].get(),
                                       static_cast<uint16_t>(w + 1)));
  }

  struct Slot {
    Status status;
    Answer answer;
  };
  std::vector<Slot> slots(snaps.size());
  std::atomic<size_t> next{0};
  auto work = [&](IterationContext* ctx) {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= snaps.size()) return;
      Slot& slot = slots[i];
      slot.status = AnswerIteration(ctx, state, snaps[i], i, &slot.answer);
      // Every index up to the highest claim is owned by some worker, so
      // the in-order record loop below meets a failure (a cancellation
      // included) before any snapshot left unclaimed.
      if (!slot.status.ok()) return;
    }
  };

  int64_t phase_start = NowMicros();
  std::vector<std::thread> threads;
  threads.reserve(contexts.size());
  for (IterationContext* ctx : contexts) threads.emplace_back(work, ctx);
  for (std::thread& t : threads) t.join();
  stats_.parallel_wall_us = NowMicros() - phase_start;

  for (const Slot& slot : slots) {
    stats_.parallel_lock_wait_us += slot.answer.store.lock_wait_us;
    stats_.coalesced_loads += slot.answer.store.coalesced_loads;
  }
  if (trace_on_) {
    trace_.Emit(RqlTraceEventType::kWorkerStall, retro::kNoSnapshot,
                {stats_.parallel_lock_wait_us, stats_.coalesced_loads,
                 workers});
  }

  // Recorded in Qs order: semantics identical to the serial run.
  for (size_t i = 0; i < snaps.size(); ++i) {
    RQL_RETURN_IF_ERROR(slots[i].status);
    RQL_RETURN_IF_ERROR(RecordIteration(state, snaps[i], &slots[i].answer));
  }
  return Status::OK();
}

Status RqlEngine::RunIteration(IterationContext* ctx, MechanismState* state,
                               retro::SnapshotId snap) {
  Answer answer;
  RQL_RETURN_IF_ERROR(
      AnswerIteration(ctx, state, snap, stats_.iterations.size(), &answer));
  return RecordIteration(state, snap, &answer);
}

Status RqlEngine::AnswerIteration(IterationContext* ctx,
                                  MechanismState* state,
                                  retro::SnapshotId snap, size_t index,
                                  Answer* out) {
  // Iteration boundaries are the cancellation safety points: nothing is
  // half-done here, so aborting leaves the store, caches and the (about to
  // be discarded) result table in a reusable state. Sequential and
  // UDF-form runs check at the head of every iteration, parallel workers
  // after claiming each snapshot.
  if (CancelRequested()) return Status::Aborted("run cancelled");
  const bool parallel = ctx->worker != 0;
  sql::Database* db = ctx->db;
  retro::SnapshotStore* store = db->store();
  // No decoded-page cache can be attached under the all-cold baseline
  // (ValidateRunOptions), so dropping the snapshot page cache suffices.
  if (options_.cache_policy == RqlCachePolicy::kColdPerIteration) {
    store->ClearSnapshotCache();
  }
  db->set_snapshot_set(ctx->set.get());
  RqlIterationStats& iter = out->iter;
  iter.snapshot = snap;
  // The iteration's store counters are its readers' own: the cursor's
  // Advance (the replay probe, counted into out->store as it runs) plus
  // the views its Qq statement opens.
  auto take_store_counters = [&](const retro::IterationStats& views) {
    retro::IterationStats& rs = out->store;
    rs.Add(views);
    const retro::CostModel& cm = store->cost_model();
    iter.io_us = rs.IoUs(cm);
    iter.spt_build_us = rs.SptUs(cm);
    iter.pagelog_pages = rs.pagelog_page_reads;
    iter.db_pages = rs.db_page_reads;
    iter.cache_hits = rs.snapshot_cache_hits;
    iter.maplog_pages = rs.spt.maplog_pages_read;
    iter.spt_delta_entries = rs.spt_delta_entries;
    iter.coalesced_loads = rs.coalesced_loads;
  };

  const bool memoize = options_.memo != nullptr;
  if (memoize) {
    RQL_ASSIGN_OR_RETURN(bool replayed,
                         ReplayIteration(ctx, state, snap, out));
    if (replayed) {
      take_store_counters({});
      return Status::OK();
    }
  }
  if (trace_on_) {
    trace_.Emit(RqlTraceEventType::kIterationBegin, snap,
                {static_cast<int64_t>(index)}, ctx->worker);
  }
  iter.memo_misses = memoize ? 1 : 0;
  int64_t udf_us = 0;
  int64_t qq_rows = 0;

  // A sequential iteration folds Qq's rows as they arrive, inside one
  // metadata transaction; a parallel worker buffers them for the
  // coordinator's fold. A memoized iteration also buffers them, with the
  // page versions its views record while the recorder is armed — the memo
  // entry. Disarmed right after Qq finishes (no early returns in between:
  // both execution paths capture their status in `s`).
  const bool buffer = parallel || memoize;
  db->set_current_snapshot(snap);
  if (!parallel) RQL_RETURN_IF_ERROR(meta_db_->Exec("BEGIN"));
  std::unordered_map<storage::PageId, uint64_t> versions;
  std::vector<std::string> cols;
  std::vector<Row> rows;
  if (memoize) ctx->set->set_version_recorder(&versions);
  int64_t start = NowMicros();
  auto row_cb = [&](const std::vector<std::string>& row_cols,
                    const Row& row) -> Status {
    ++qq_rows;
    if (buffer) {
      if (cols.empty()) cols = row_cols;
      rows.push_back(row);
    }
    if (parallel) return Status::OK();
    ScopedTimer timer(&udf_us);
    return state->OnRow(snap, row_cols, row);
  };
  Status s = Status::OK();
  bool ran_prepared = false;
  if (options_.profile == RqlProfile::kFast && !ctx->plan_failed) {
    bool had_plan = ctx->plan != nullptr;
    if (!had_plan) {
      ++out->qq_parses;
      auto prepared = db->Prepare(state->qq());
      if (prepared.ok()) {
        ctx->plan = std::move(prepared).value();
      } else {
        // Unpreparable Qq (e.g. a multi-statement script): fall back to
        // the paper's textual rewrite for the rest of the run.
        ctx->plan_failed = true;
      }
    }
    if (ctx->plan != nullptr) {
      Status bind = ctx->plan->BindAsOf(snap);
      if (bind.ok()) {
        if (had_plan) iter.plan_cache_hits = 1;
        s = ctx->plan->Execute(row_cb);
        ran_prepared = true;
      } else {
        ctx->plan.reset();
        ctx->plan_failed = true;
      }
    }
  }
  if (!ran_prepared) {
    // Paper-faithful path: lex/parse/plan the rewritten Qq every iteration.
    ++out->qq_parses;
    s = db->Exec(InjectAsOf(state->qq(), snap), row_cb);
  }
  if (memoize) ctx->set->set_version_recorder(nullptr);
  db->set_current_snapshot(retro::kNoSnapshot);
  // The handle's statement stats are this execution's own, so batch and
  // scan-cache attribution is exact even when the cache is shared by
  // parallel workers and concurrent runs.
  const sql::ExecStats& exec = db->last_stats().exec;
  iter.index_create_us = exec.index_build_us;
  iter.batches_scanned = exec.batches_scanned;
  iter.batch_rows = exec.batch_rows;
  iter.batch_fallback_rows = exec.batch_fallback_rows;
  iter.shared_page_hits = exec.scan_cache.hits;
  iter.scan_cache_misses = exec.scan_cache.misses;
  iter.coalesced_decodes = exec.scan_cache.coalesced;
  take_store_counters(exec.store);

  // A parallel worker's rows fold later, on the coordinating thread.
  if (s.ok() && !parallel) {
    ScopedTimer timer(&udf_us);
    s = state->OnIterationEnd(snap);
  }
  int64_t exec_total = NowMicros() - start;
  if (parallel) {
    RQL_RETURN_IF_ERROR(s);
  } else {
    RQL_RETURN_IF_ERROR(state->EndFoldTransaction(std::move(s)));
  }
  const retro::IterationStats& rs = out->store;
  iter.udf_us = udf_us;
  iter.query_eval_us =
      std::max<int64_t>(0, exec_total - udf_us - iter.index_create_us -
                               rs.spt.cpu_us);
  iter.qq_rows = qq_rows;
  if (trace_on_) {
    const uint16_t w = ctx->worker;
    trace_.Emit(RqlTraceEventType::kSptBuild, snap,
                {iter.maplog_pages, iter.spt_delta_entries, rs.spt.cpu_us,
                 ctx->set != nullptr ? 1 : 0},
                w);
    // Args slot 1 is retired (always 0), keeping positions stable.
    trace_.Emit(RqlTraceEventType::kArchiveFetch, snap,
                {iter.pagelog_pages, 0, iter.cache_hits, iter.db_pages,
                 rs.archive_read_retries},
                w);
    if (db->scan_cache() != nullptr) {
      trace_.Emit(RqlTraceEventType::kScanCache, snap,
                  {iter.shared_page_hits, iter.scan_cache_misses,
                   iter.coalesced_decodes},
                  w);
    }
    trace_.Emit(RqlTraceEventType::kIterationEnd, snap,
                {iter.io_us, iter.spt_build_us, iter.query_eval_us,
                 iter.index_create_us, iter.udf_us, iter.qq_rows},
                w);
  }

  std::shared_ptr<const std::vector<Row>> buffered;
  if (buffer) {
    buffered = std::make_shared<const std::vector<Row>>(std::move(rows));
  }
  if (memoize) {
    // The executed iteration becomes a published entry and the fast
    // path's predecessor, which replays the decoded rows.
    RQL_ASSIGN_OR_RETURN(uint64_t fp, state->MemoFingerprint());
    out->publish = MakeMemoEntry(fp, snap, versions, cols, *buffered);
    ctx->prev = {out->publish, buffered};
  }
  if (parallel) {
    out->columns =
        std::make_shared<const std::vector<std::string>>(std::move(cols));
    out->rows = std::move(buffered);
  }
  return Status::OK();
}

Status RqlEngine::RecordIteration(MechanismState* state,
                                  retro::SnapshotId snap, Answer* answer) {
  RqlIterationStats& iter = answer->iter;
  if (answer->rows != nullptr) {
    // The fold of buffered or replayed rows, inside one metadata
    // transaction. Non-idempotent folds stay correct on replayed rows
    // because the mechanism re-runs exactly as it would have over the live
    // Qq cursor.
    iter.qq_rows = static_cast<int64_t>(answer->rows->size());
    RQL_RETURN_IF_ERROR(meta_db_->Exec("BEGIN"));
    Status s = Status::OK();
    {
      ScopedTimer timer(&iter.udf_us);
      for (const Row& row : *answer->rows) {
        s = state->OnRow(snap, *answer->columns, row);
        if (!s.ok()) break;
      }
      if (s.ok()) s = state->OnIterationEnd(snap);
    }
    RQL_RETURN_IF_ERROR(state->EndFoldTransaction(std::move(s)));
  }
  state->CollectCounters(&iter);
  std::shared_ptr<const retro::MemoEntry> entry = std::move(answer->publish);
  if (entry != nullptr && iter.skipped) {
    // The memo learns the fast-path replay too, as if `snap` had
    // executed: the delta missed the predecessor's read set, so it
    // resolves identically at `snap`. Later runs over any subset of these
    // snapshots then hit. An archived read set publishes only an alias
    // record, and a probe validates either form. A snapshot already
    // registered under this read set (a warm run) publishes nothing.
    RQL_ASSIGN_OR_RETURN(uint64_t fp, state->MemoFingerprint());
    std::shared_ptr<const retro::MemoEntry> at =
        options_.memo->Probe(fp, snap);
    if (at != nullptr && at->read_set == entry->read_set) {
      entry = nullptr;
    } else {
      auto alias = std::make_shared<retro::MemoEntry>(*entry);
      alias->snapshot = snap;
      entry = std::move(alias);
    }
  }
  if (entry != nullptr) {
    RQL_ASSIGN_OR_RETURN(retro::MemoPublishResult pub,
                         options_.memo->Publish(std::move(entry)));
    iter.memo_bytes = static_cast<int64_t>(pub.bytes_appended);
    iter.memo_evictions = pub.evictions;
  }
  if (trace_on_ && (iter.skipped || iter.memo_hits != 0)) {
    trace_.Emit(iter.skipped ? RqlTraceEventType::kIterationSkip
                             : RqlTraceEventType::kMemoHit,
                snap,
                {static_cast<int64_t>(stats_.iterations.size()),
                 answer->replay_trace_arg, iter.qq_rows, iter.udf_us});
  }
  stats_.qq_parse_count += answer->qq_parses;
  stats_.archive_read_retries += answer->store.archive_read_retries;
  if (iter.skipped) ++stats_.iterations_skipped;
  stats_.shared_page_hits += iter.shared_page_hits;
  stats_.scan_cache_misses += iter.scan_cache_misses;
  stats_.coalesced_decodes += iter.coalesced_decodes;
  stats_.iterations.push_back(iter);
  return Status::OK();
}

Result<bool> RqlEngine::ReplayIteration(IterationContext* ctx,
                                        MechanismState* state,
                                        retro::SnapshotId snap, Answer* out) {
  // Advancing the cursor also primes the SPT for the snapshot's open
  // below (or Qq's, on a miss): re-seeking the same id drains no delta.
  std::vector<storage::PageId> delta;
  const retro::SnapshotId from = ctx->set->position();
  RQL_ASSIGN_OR_RETURN(bool have_delta,
                       ctx->set->Advance(snap, &delta, &out->store));
  RqlIterationStats& iter = out->iter;
  iter.delta_pages_scanned = static_cast<int64_t>(delta.size());
  IterationContext::Predecessor& prev = ctx->prev;
  // A rebase (first snapshot of the set, a backward seek, a truncation)
  // leaves no predecessor to diff against, and neither does a step that
  // began where Qq's own AS OF left the cursor.
  if (!have_delta || from != ctx->last_snap) prev = {};
  ctx->last_snap = snap;
  if (prev.entry != nullptr && !state->UsesCurrentSnapshot() &&
      DeltaMissesReadSet(delta, *prev.entry)) {
    iter.skipped = true;
    out->replay_trace_arg = iter.delta_pages_scanned;
    out->publish = prev.entry;
  } else {
    RQL_ASSIGN_OR_RETURN(uint64_t fp, state->MemoFingerprint());
    std::shared_ptr<const retro::MemoEntry> entry =
        options_.memo->Probe(fp, snap);
    // Advance left the cursor at `snap`, so validation reads its table in
    // place. A failure is a conservative miss: the execute path runs next.
    if (entry == nullptr || !ValidateMemoEntry(*ctx->set, *entry)) {
      return false;
    }
    auto rows = DecodeMemoRows(*entry);
    if (!rows.ok()) return false;
    // The hit seeds the fast path: provably unchanged successors replay
    // it without re-probing the memo.
    prev = {entry, std::make_shared<const std::vector<Row>>(
                       std::move(rows).value())};
    iter.memo_hits = 1;
    out->replay_trace_arg = static_cast<int64_t>(entry->read_set.size());
  }
  out->columns = std::shared_ptr<const std::vector<std::string>>(
      prev.entry, &prev.entry->columns);
  out->rows = prev.rows;
  return true;
}

Status RqlEngine::CollateData(const std::string& qs, const std::string& qq,
                              const std::string& table) {
  CollateState state(this, qq, table);
  return RunMechanism(qs, &state);
}

Status RqlEngine::AggregateDataInVariable(const std::string& qs,
                                          const std::string& qq,
                                          const std::string& table,
                                          const std::string& agg_func) {
  RQL_ASSIGN_OR_RETURN(RqlAggFunc func, RqlAggFuncFromName(agg_func));
  AggVariableState state(this, qq, table, func);
  return RunMechanism(qs, &state);
}

Status RqlEngine::AggregateDataInTable(const std::string& qs,
                                       const std::string& qq,
                                       const std::string& table,
                                       const std::vector<ColFuncPair>& pairs) {
  if (pairs.empty()) {
    return Status::InvalidArgument(
        "AggregateDataInTable requires at least one (column, func) pair");
  }
  AggTableState state(this, qq, table, pairs);
  return RunMechanism(qs, &state);
}

Status RqlEngine::AggregateDataInTable(const std::string& qs,
                                       const std::string& qq,
                                       const std::string& table,
                                       const std::string& pairs) {
  RQL_ASSIGN_OR_RETURN(std::vector<ColFuncPair> parsed,
                       ParseColFuncPairs(pairs));
  return AggregateDataInTable(qs, qq, table, parsed);
}

Status RqlEngine::CollateDataIntoIntervals(const std::string& qs,
                                           const std::string& qq,
                                           const std::string& table) {
  IntervalState state(this, qq, table);
  return RunMechanism(qs, &state);
}

Result<std::vector<ColFuncPair>> RqlEngine::ParseColFuncPairs(
    const std::string& text) {
  // Accepts the paper's notations "(col,func)" and "(func,col)", with
  // multiple pairs separated by ':', e.g. "(MAX,cn):(MAX,av)".
  std::vector<ColFuncPair> pairs;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t open = text.find('(', pos);
    if (open == std::string::npos) break;
    size_t comma = text.find(',', open);
    size_t close = text.find(')', open);
    if (comma == std::string::npos || close == std::string::npos ||
        comma > close) {
      return Status::InvalidArgument("bad column/function pair syntax: " +
                                     text);
    }
    auto trim = [](std::string s) {
      size_t b = s.find_first_not_of(" \t");
      size_t e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string()
                                    : s.substr(b, e - b + 1);
    };
    std::string first = trim(text.substr(open + 1, comma - open - 1));
    std::string second = trim(text.substr(comma + 1, close - comma - 1));
    ColFuncPair pair;
    auto func_first = RqlAggFuncFromName(first);
    auto func_second = RqlAggFuncFromName(second);
    if (func_second.ok()) {
      pair.column = first;
      pair.func = *func_second;
    } else if (func_first.ok()) {
      pair.column = second;
      pair.func = *func_first;
    } else {
      return Status::InvalidArgument(
          "no aggregate function in pair: (" + first + "," + second + ")");
    }
    pairs.push_back(std::move(pair));
    pos = close + 1;
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("no column/function pairs in: " + text);
  }
  return pairs;
}

Status RqlEngine::RegisterUdfs() {
  // Each UDF call is one iteration of a run driven by the SELECT over
  // SnapIds: the first call validates the options and opens the run's
  // scope, FinishUdfRuns closes it. A failed iteration is latched on the
  // scope, and the run executes no further iteration.
  auto iterate = [this](retro::SnapshotId snap, const std::string& table,
                        auto make_state) -> Result<MechanismState*> {
    if (udf_run_ == nullptr) {
      RQL_RETURN_IF_ERROR(ValidateRunOptions(options_, /*parallel=*/false));
      udf_run_ = std::make_unique<RunScope>(this);
      udf_run_->Begin(/*snapshots=*/0, /*workers=*/1);
    }
    RQL_RETURN_IF_ERROR(udf_run_->failure());
    auto it = udf_states_.find(table);
    Status s = Status::OK();
    if (it == udf_states_.end()) {
      s = meta_db_->Exec("DROP TABLE IF EXISTS " + table);
      if (s.ok()) {
        UdfState udf{make_state(), udf_run_->NewContext(data_db_, 0)};
        it = udf_states_.emplace(table, std::move(udf)).first;
      }
    }
    if (s.ok()) s = RunIteration(it->second.ctx, it->second.state.get(), snap);
    if (!s.ok()) {
      udf_run_->Fail(s);
      return s;
    }
    return it->second.state.get();
  };

  auto snap_of = [](const Value& v) -> Result<retro::SnapshotId> {
    if (!v.is_numeric()) {
      return Status::InvalidArgument("snap_id argument must be an integer");
    }
    return static_cast<retro::SnapshotId>(v.AsInt());
  };

  meta_db_->RegisterFunction(
      "CollateData", 3, 3,
      [this, iterate, snap_of](const std::vector<Value>& args)
          -> Result<Value> {
        RQL_ASSIGN_OR_RETURN(retro::SnapshotId snap, snap_of(args[0]));
        const std::string& qq = args[1].text();
        const std::string& table = args[2].text();
        RQL_RETURN_IF_ERROR(iterate(snap, table, [&] {
                              return std::unique_ptr<MechanismState>(
                                  new CollateState(this, qq, table));
                            }).status());
        return Value::Integer(stats_.iterations.back().qq_rows);
      });

  meta_db_->RegisterFunction(
      "AggregateDataInVariable", 4, 4,
      [this, iterate, snap_of](const std::vector<Value>& args)
          -> Result<Value> {
        RQL_ASSIGN_OR_RETURN(retro::SnapshotId snap, snap_of(args[0]));
        const std::string& qq = args[1].text();
        const std::string& table = args[2].text();
        RQL_ASSIGN_OR_RETURN(RqlAggFunc func,
                             RqlAggFuncFromName(args[3].text()));
        RQL_ASSIGN_OR_RETURN(
            MechanismState* state,
            iterate(snap, table, [&] {
              return std::unique_ptr<MechanismState>(
                  new AggVariableState(this, qq, table, func));
            }));
        return static_cast<AggVariableState*>(state)->Current();
      });

  meta_db_->RegisterFunction(
      "AggregateDataInTable", 4, 4,
      [this, iterate, snap_of](const std::vector<Value>& args)
          -> Result<Value> {
        RQL_ASSIGN_OR_RETURN(retro::SnapshotId snap, snap_of(args[0]));
        const std::string& qq = args[1].text();
        const std::string& table = args[2].text();
        RQL_ASSIGN_OR_RETURN(std::vector<ColFuncPair> pairs,
                             ParseColFuncPairs(args[3].text()));
        RQL_RETURN_IF_ERROR(iterate(snap, table, [&] {
                              return std::unique_ptr<MechanismState>(
                                  new AggTableState(this, qq, table, pairs));
                            }).status());
        return Value::Integer(stats_.iterations.back().qq_rows);
      });

  meta_db_->RegisterFunction(
      "CollateDataIntoIntervals", 3, 3,
      [this, iterate, snap_of](const std::vector<Value>& args)
          -> Result<Value> {
        RQL_ASSIGN_OR_RETURN(retro::SnapshotId snap, snap_of(args[0]));
        const std::string& qq = args[1].text();
        const std::string& table = args[2].text();
        RQL_RETURN_IF_ERROR(iterate(snap, table, [&] {
                              return std::unique_ptr<MechanismState>(
                                  new IntervalState(this, qq, table));
                            }).status());
        return Value::Integer(stats_.iterations.back().qq_rows);
      });

  return Status::OK();
}

Status RqlEngine::FinishUdfRuns() {
  Status s = udf_run_ != nullptr ? udf_run_->failure() : Status::OK();
  for (auto& [table, udf] : udf_states_) {
    if (s.ok()) s = udf.state->Finish();
  }
  // A failed run is discarded, exactly like the programmatic form: every
  // result table it created is dropped.
  if (!s.ok()) {
    for (auto& [table, udf] : udf_states_) udf.state->DiscardOnFailure();
  }
  if (udf_run_ != nullptr) udf_run_->Finish(s);
  udf_run_.reset();
  udf_states_.clear();
  return s;
}

}  // namespace rql
