// Property tests for vectorized batch execution: under RqlProfile::kFast,
// every mechanism's result table must be byte-identical to the paper-
// faithful row-at-a-time run across the page-sharing flag matrix and
// worker counts, plus direct BatchIterator
// edge cases (empty pages, boundary selections, mid-scan cache eviction).

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/random.h"
#include "rql/aggregates.h"
#include "rql/rql.h"
#include "sql/heap_table.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"

namespace rql {
namespace {

using sql::Row;
using sql::Value;

struct Fixture {
  std::unique_ptr<storage::InMemoryEnv> env =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  std::vector<retro::SnapshotId> snaps;
};

/// The two-zone sparse history of rql_property_test, condensed: `live`
/// spans several heap pages (320 filler rows force the split), zone A
/// (items 0..items) changes every `live_period`-th snapshot, zone B
/// (items 50000..) every 2*`live_period`-th, and a `churn` side table
/// changes every snapshot. Post-load mutations are in-place UPDATEs and
/// DELETEs only, so unchanged pages keep their shared versions — the
/// shape where a decoded-page cache and the memo's delta fast path bite,
/// and where a batch borrows cached decoded pages zero-copy.
Fixture MakeSparseFixture(uint64_t seed, int snapshots, int items,
                          int live_period) {
  Fixture f;
  auto data = sql::Database::Open(f.env.get(), "data");
  auto meta = sql::Database::Open(f.env.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(
      f.data->Exec("CREATE TABLE live (item INTEGER, score INTEGER)").ok());
  EXPECT_TRUE(
      f.data->Exec("CREATE TABLE churn (k INTEGER, v INTEGER)").ok());

  Random rng(seed);
  std::map<int64_t, int64_t> current;
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    EXPECT_TRUE(f.data
                    ->Exec("INSERT INTO churn VALUES (" + std::to_string(s) +
                           ", " + std::to_string(rng.Uniform(1000)) + ")")
                    .ok());
    if (s == 0) {
      for (int i = 0; i <= items; ++i) {
        int64_t score = i == 0 ? 5 : static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(i) + ", " +
                               std::to_string(score) + ")")
                        .ok());
        current[i] = score;
      }
      for (int i = 0; i < 320; ++i) {
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(1000 + i) + ", 7)")
                        .ok());
        current[1000 + i] = 7;
      }
      for (int i = 0; i < items; ++i) {
        int64_t score = static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("INSERT INTO live VALUES (" +
                               std::to_string(50000 + i) + ", " +
                               std::to_string(score) + ")")
                        .ok());
        current[50000 + i] = score;
      }
    } else {
      if (s % live_period == 0) {
        // Unconditional item-0 update: guarantees the iteration executes.
        int64_t score = static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("UPDATE live SET score = " +
                               std::to_string(score) + " WHERE item = 0")
                        .ok());
        current[0] = score;
        int ops = static_cast<int>(rng.Uniform(3));
        for (int op = 0; op < ops; ++op) {
          int64_t item = 1 + static_cast<int64_t>(rng.Uniform(items));
          if (!current.count(item)) continue;
          if (rng.Uniform(4) == 0) {
            EXPECT_TRUE(f.data
                            ->Exec("DELETE FROM live WHERE item = " +
                                   std::to_string(item))
                            .ok());
            current.erase(item);
            continue;
          }
          score = static_cast<int64_t>(rng.Uniform(100));
          EXPECT_TRUE(f.data
                          ->Exec("UPDATE live SET score = " +
                                 std::to_string(score) +
                                 " WHERE item = " + std::to_string(item))
                          .ok());
          current[item] = score;
        }
      }
      if (s % (2 * live_period) == 0) {
        int64_t item = 50000 + static_cast<int64_t>(rng.Uniform(items));
        int64_t score = static_cast<int64_t>(rng.Uniform(100));
        EXPECT_TRUE(f.data
                        ->Exec("UPDATE live SET score = " +
                               std::to_string(score) +
                               " WHERE item = " + std::to_string(item))
                        .ok());
        current[item] = score;
      }
    }
    auto snap = f.engine->CommitWithSnapshot("t" + std::to_string(s));
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    f.snaps.push_back(*snap);
  }
  return f;
}

class BatchExecutionTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchExecutionTest, BatchPathByteIdenticalAcrossFlagMatrix) {
  // The fast profile's batch path is a pure optimization: for every
  // mechanism, every result table must be byte-identical between the
  // paper-faithful and fast profiles under every flag configuration and
  // worker count. AggregateDataInVariable
  // uses the non-idempotent `sum` fold so a double- or under-counted batch
  // would be caught.
  Fixture f = MakeSparseFixture(GetParam() * 1000 + 211, 16, 8, 4);
  const std::string qs = "SELECT snap_id FROM SnapIds";

  auto dump = [&](const std::string& table) {
    auto rows = f.meta->Query("SELECT * FROM " + table);
    EXPECT_TRUE(rows.ok()) << table << ": " << rows.status().ToString();
    std::vector<std::string> out;
    for (const Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
    return out;
  };

  struct Mech {
    const char* name;
    std::function<Status(const std::string&)> run;
  };
  const std::vector<Mech> mechs = {
      {"collate",
       [&](const std::string& t) {
         return f.engine->CollateData(
             qs, "SELECT item, score FROM live WHERE score < 90", t);
       }},
      {"aggvar",
       [&](const std::string& t) {
         return f.engine->AggregateDataInVariable(
             qs, "SELECT COUNT(*) AS c FROM live", t, "sum");
       }},
      {"aggtable",
       [&](const std::string& t) {
         return f.engine->AggregateDataInTable(
             qs, "SELECT item, score FROM live", t, "(score,max)");
       }},
      {"intervals",
       [&](const std::string& t) {
         return f.engine->CollateDataIntoIntervals(
             qs, "SELECT item FROM live", t);
       }},
  };

  // The property test's flag matrix, plus the flags-off config, crossed
  // with {kPaperFaithful, kFast} and {1, 4} workers below. `cache` runs
  // against a run-scoped decoded-page cache, cleared before every run;
  // `memo` against a run-scoped memo (a fresh MemoTable).
  struct Config {
    const char* name;
    bool cache, memo;
  };
  const Config kConfigs[] = {
      {"off", false, false},
      {"cache", true, false},
      {"memo", false, true},
      {"both", true, true},
  };
  sql::SharedScanCache run_cache({.max_bytes = 0});

  for (const Mech& m : mechs) {
    *f.engine->mutable_options() = RqlOptions{};
    f.data->store()->ClearSnapshotCache();
    std::string base_table = std::string("base_") + m.name;
    ASSERT_TRUE(m.run(base_table).ok()) << m.name;
    std::vector<std::string> baseline = dump(base_table);

    int variant = 0;
    for (const Config& c : kConfigs) {
      for (int workers : {1, 4}) {
        for (RqlProfile profile :
             {RqlProfile::kPaperFaithful, RqlProfile::kFast}) {
          const bool batch = profile == RqlProfile::kFast;
          RqlOptions opts;
          run_cache.Clear();
          auto run_memo = std::make_unique<retro::MemoTable>();
          opts.shared_scan_cache = c.cache ? &run_cache : nullptr;
          opts.memo = c.memo ? run_memo.get() : nullptr;
          opts.parallel_workers = workers;
          opts.profile = profile;
          *f.engine->mutable_options() = opts;
          f.data->store()->ClearSnapshotCache();
          std::string table = std::string(m.name) + "_v" +
                              std::to_string(variant++);
          std::string label = std::string(m.name) + "/" + c.name +
                              "/workers=" + std::to_string(workers) +
                              "/" + RqlProfileName(profile);
          Status s = m.run(table);
          ASSERT_TRUE(s.ok()) << label << ": " << s.ToString();
          EXPECT_EQ(dump(table), baseline) << label;

          int64_t batches = 0, batch_rows = 0;
          int64_t memo_misses = 0;
          const RqlRunStats& stats = f.engine->last_run_stats();
          for (const RqlIterationStats& it : stats.iterations) {
            batches += it.batches_scanned;
            batch_rows += it.batch_rows;
            memo_misses += it.memo_misses;
          }
          if (c.memo) {
            // Run-scoped: every iteration executed or took the delta fast
            // path.
            EXPECT_EQ(memo_misses + stats.iterations_skipped,
                      static_cast<int64_t>(stats.iterations.size()))
                << label;
          }
          if (batch) {
            // Every Qq above is a plain single-table scan, so at least
            // the executed (non-skipped) iterations must take the
            // batch path.
            EXPECT_GT(batches, 0) << label;
            EXPECT_GT(batch_rows, 0) << label;
          } else {
            EXPECT_EQ(batches, 0) << label;
            EXPECT_EQ(batch_rows, 0) << label;
          }
        }
      }
    }
  }
}

/// Direct BatchIterator edge cases against the heap, current state
/// (unversioned pages, owned-frame path) and snapshots (pinned path).
class BatchIteratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = sql::Database::Open(&env_, "data");
    auto meta = sql::Database::Open(&env_, "meta");
    ASSERT_TRUE(data.ok() && meta.ok());
    data_ = std::move(*data);
    meta_ = std::move(*meta);
    engine_ = std::make_unique<RqlEngine>(data_.get(), meta_.get());
    ASSERT_TRUE(engine_->EnsureSnapIds().ok());
    ASSERT_TRUE(
        data_->Exec("CREATE TABLE t (id INTEGER, v INTEGER)").ok());
    // ~155 fixed-width rows per 4 KiB page: 400 rows span 3+ pages.
    std::string sql;
    for (int i = 0; i < 400; ++i) {
      sql += (i ? "; " : "") + std::string("INSERT INTO t VALUES (") +
             std::to_string(i) + ", " + std::to_string(i * 3) + ")";
    }
    ASSERT_TRUE(data_->Exec(sql).ok());
  }

  storage::PageId Root() {
    const sql::TableInfo* info = data_->catalog()->data().FindTable("t");
    EXPECT_NE(info, nullptr);
    return info->root;
  }

  /// Collects all (id, v) pairs a batch scan yields, asserting batches
  /// are never empty and selection vectors start as identity.
  std::vector<std::pair<int64_t, int64_t>> CollectBatches(
      storage::PageReader* reader, sql::SharedScanCache* cache,
      const std::function<void(int)>& per_batch = nullptr) {
    std::vector<std::pair<int64_t, int64_t>> out;
    int batch_index = 0;
    for (auto it = sql::HeapTable::ScanBatches(reader, Root(), cache);
         it.Valid(); it.Next()) {
      sql::RowBatch& b = it.batch();
      EXPECT_GT(b.size, 0u);  // empty pages never surface as batches
      EXPECT_TRUE(b.selection.empty());  // the consumer fills it
      for (uint32_t i = 0; i < b.size; ++i) {
        const Row& row = b.rows[i];
        out.emplace_back(row[0].integer(), row[1].integer());
      }
      if (per_batch) per_batch(batch_index);
      ++batch_index;
    }
    return out;
  }

  std::vector<std::pair<int64_t, int64_t>> CollectRows(
      storage::PageReader* reader) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (auto it = sql::HeapTable::Scan(reader, Root(), nullptr); it.Valid();
         it.Next()) {
      auto row = sql::DecodeRow(it.record());
      EXPECT_TRUE(row.ok());
      out.emplace_back((*row)[0].integer(), (*row)[1].integer());
    }
    return out;
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<sql::Database> data_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<RqlEngine> engine_;
};

TEST_F(BatchIteratorTest, MatchesRowScanOverCurrentState) {
  auto batched = CollectBatches(data_->store(), nullptr);
  auto rows = CollectRows(data_->store());
  EXPECT_EQ(batched, rows);
  EXPECT_EQ(batched.size(), 400u);
}

TEST_F(BatchIteratorTest, SkipsFullyDeletedPages) {
  // Emptying the first page(s) leaves all-dead slots; the batch iterator
  // must skip them without surfacing an empty batch.
  ASSERT_TRUE(data_->Exec("DELETE FROM t WHERE id < 160").ok());
  auto batched = CollectBatches(data_->store(), nullptr);
  auto rows = CollectRows(data_->store());
  EXPECT_EQ(batched, rows);
  EXPECT_EQ(batched.size(), 240u);
  EXPECT_EQ(batched.front().first, 160);

  // Degenerate case: every page empty, the scan yields nothing but stays OK.
  ASSERT_TRUE(data_->Exec("DELETE FROM t").ok());
  auto it = sql::HeapTable::ScanBatches(data_->store(), Root(), nullptr);
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
}

TEST_F(BatchIteratorTest, BatchSurvivesMidScanCacheEviction) {
  // Snapshot pages are versioned, so the scan pins entries in the
  // SharedScanCache. Clearing the cache mid-scan must not invalidate the batch
  // in hand: it owns the decoded page via shared_ptr, so its (zero-copy)
  // values stay readable and iteration continues over the remaining pages.
  ASSERT_TRUE(data_->Exec("BEGIN").ok());
  ASSERT_TRUE(data_->Exec("UPDATE t SET v = v + 1 WHERE id = 0").ok());
  auto snap = engine_->CommitWithSnapshot("s1");
  ASSERT_TRUE(snap.ok());
  // A second snapshot so the first's pages are archived (versioned).
  ASSERT_TRUE(data_->Exec("BEGIN").ok());
  ASSERT_TRUE(data_->Exec("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  ASSERT_TRUE(engine_->CommitWithSnapshot("s2").ok());

  auto view = data_->store()->OpenSnapshot(*snap);
  ASSERT_TRUE(view.ok());
  auto baseline = CollectRows(view->get());

  sql::SharedScanCache cache;
  auto evicting = CollectBatches(view->get(), &cache,
                                 [&](int batch_index) {
                                   if (batch_index == 0) cache.Clear();
                                 });
  EXPECT_EQ(evicting, baseline);

  // And with the cache cleared after every single batch.
  cache.Clear();
  auto always = CollectBatches(view->get(), &cache,
                               [&](int) { cache.Clear(); });
  EXPECT_EQ(always, baseline);
}

TEST_F(BatchIteratorTest, BoundarySelectionsMatchRowPath) {
  // Executor-level boundary cases: predicates that keep only the first
  // row, only the last row, a page-straddling band, or nothing at all
  // must produce identical results on the batch and row paths (the
  // empty-selection batches exercise the skip-without-consume path).
  ASSERT_TRUE(data_->Exec("BEGIN").ok());
  ASSERT_TRUE(data_->Exec("UPDATE t SET v = v WHERE id = 0").ok());
  auto snap = engine_->CommitWithSnapshot("s1");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(data_->Exec("BEGIN").ok());
  ASSERT_TRUE(data_->Exec("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  ASSERT_TRUE(engine_->CommitWithSnapshot("s2").ok());

  const std::string as_of = "SELECT AS OF " + std::to_string(*snap) + " ";
  const std::vector<std::string> queries = {
      as_of + "id, v FROM t WHERE id = 0",
      as_of + "id, v FROM t WHERE id = 399",
      as_of + "id, v FROM t WHERE id >= 150 AND id < 170",
      as_of + "id, v FROM t WHERE id < 0",
      as_of + "COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t "
              "WHERE id % 7 = 3",
      as_of + "id, v FROM t ORDER BY id LIMIT 5",
  };
  for (const std::string& q : queries) {
    data_->set_batch_execution(false);
    auto row_result = data_->Query(q);
    ASSERT_TRUE(row_result.ok()) << q << ": "
                                 << row_result.status().ToString();
    data_->set_batch_execution(true);
    auto batch_result = data_->Query(q);
    ASSERT_TRUE(batch_result.ok()) << q << ": "
                                   << batch_result.status().ToString();
    EXPECT_GT(data_->last_stats().exec.batches_scanned, 0) << q;
    ASSERT_EQ(batch_result->rows.size(), row_result->rows.size()) << q;
    for (size_t i = 0; i < row_result->rows.size(); ++i) {
      EXPECT_EQ(sql::EncodeRow(batch_result->rows[i]),
                sql::EncodeRow(row_result->rows[i]))
          << q << " row " << i;
    }
    data_->set_batch_execution(false);
  }
}

TEST(RqlCombineBatchTest, EquivalentToSequentialCombine) {
  const std::vector<Value> vals = {
      Value::Integer(4),  Value::Null(),       Value::Real(2.5),
      Value::Integer(-7), Value::Integer(4),   Value::Null(),
      Value::Real(4.0),   Value::Integer(100),
  };
  for (RqlAggFunc func : {RqlAggFunc::kMin, RqlAggFunc::kMax,
                          RqlAggFunc::kSum, RqlAggFunc::kCount}) {
    for (size_t start : {0u, 1u, 3u}) {
      for (Value acc : {Value::Null(), Value::Integer(10)}) {
        Value sequential = acc;
        for (size_t i = start; i < vals.size(); ++i) {
          auto r = RqlCombine(func, sequential, vals[i]);
          ASSERT_TRUE(r.ok());
          sequential = std::move(*r);
        }
        auto batched = RqlCombineBatch(func, acc, vals.data() + start,
                                       vals.size() - start);
        ASSERT_TRUE(batched.ok());
        EXPECT_EQ(sql::EncodeRow({*batched}), sql::EncodeRow({sequential}))
            << RqlAggFuncName(func) << " start=" << start;
      }
    }
  }
  // Empty input is the identity, NULL accumulator included.
  auto empty = RqlCombineBatch(RqlAggFunc::kCount, Value::Null(), nullptr, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->is_null());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExecutionTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace rql
