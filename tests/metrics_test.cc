// Tests for the observability layer: the retro::MetricsRegistry itself,
// the component RegisterMetrics gauges, and the engine-level guarantee
// that a registry delta taken around one run equals the legacy
// RqlRunStats counters for every mechanism.

#include "retro/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rql/rql.h"
#include "sql/shared_scan_cache.h"

namespace rql {
namespace {

using retro::MetricsRegistry;

TEST(MetricsRegistryTest, CounterAddAndSnapshot) {
  MetricsRegistry reg;
  MetricsRegistry::Counter* c = reg.GetCounter("x.count");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  // Same name returns the same counter.
  EXPECT_EQ(reg.GetCounter("x.count"), c);
  MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("x.count"), 42);
  // Unknown names read as zero, not as an error.
  EXPECT_EQ(snap.counter("never.seen"), 0);
}

TEST(MetricsRegistryTest, DeltaSubtractsCounters) {
  MetricsRegistry reg;
  reg.GetCounter("a")->Add(10);
  MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  reg.GetCounter("a")->Add(5);
  reg.GetCounter("b")->Add(7);  // born after `before`
  MetricsRegistry::Snapshot delta = reg.TakeSnapshot().DeltaFrom(before);
  EXPECT_EQ(delta.counter("a"), 5);
  EXPECT_EQ(delta.counter("b"), 7);
}

TEST(MetricsRegistryTest, GaugesReadLiveState) {
  MetricsRegistry reg;
  int64_t live = 3;
  reg.SetGauge("g.live", [&live] { return live; });
  EXPECT_EQ(reg.TakeSnapshot().gauges.at("g.live"), 3);
  live = 9;
  EXPECT_EQ(reg.TakeSnapshot().gauges.at("g.live"), 9);
  reg.RemoveGauge("g.live");
  EXPECT_EQ(reg.TakeSnapshot().gauges.count("g.live"), 0u);
}

TEST(MetricsRegistryTest, RemoveGaugesWithPrefix) {
  MetricsRegistry reg;
  reg.SetGauge("pool.a", [] { return int64_t{1}; });
  reg.SetGauge("pool.b", [] { return int64_t{2}; });
  reg.SetGauge("other", [] { return int64_t{3}; });
  reg.RemoveGaugesWithPrefix("pool.");
  MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges.count("other"), 1u);
}

TEST(MetricsRegistryTest, HistogramBucketsAndDelta) {
  MetricsRegistry reg;
  MetricsRegistry::Histogram* h = reg.GetHistogram("lat");
  h->ObserveUs(0);
  h->ObserveUs(1);
  h->ObserveUs(1000);
  MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  const auto& hs = snap.histograms.at("lat");
  EXPECT_EQ(hs.count, 3);
  EXPECT_EQ(hs.sum_us, 1001);
  int64_t bucket_total = 0;
  for (int64_t b : hs.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 3);

  MetricsRegistry::Snapshot before = snap;
  h->ObserveUs(5);
  auto delta = reg.TakeSnapshot().DeltaFrom(before).histograms.at("lat");
  EXPECT_EQ(delta.count, 1);
  EXPECT_EQ(delta.sum_us, 5);
}

TEST(MetricsRegistryTest, ResetClearsCountersAndHistograms) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(4);
  reg.GetHistogram("h")->ObserveUs(10);
  reg.Reset();
  MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("c"), 0);
  EXPECT_EQ(snap.histograms.at("h").count, 0);
}

TEST(MetricsRegistryTest, DefaultIsAProcessSingleton) {
  EXPECT_EQ(MetricsRegistry::Default(), MetricsRegistry::Default());
}

TEST(MetricsRegistryTest, ConcurrentAddsAreLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // GetCounter under contention must also be safe, not just Add.
      for (int i = 0; i < kAdds; ++i) {
        reg.GetCounter("shared")->Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.TakeSnapshot().counter("shared"), kThreads * kAdds);
}

// --- component gauges ------------------------------------------------------

TEST(ComponentMetricsTest, SnapshotStoreGaugesTrackLiveState) {
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  ASSERT_TRUE(data.ok() && meta.ok());
  RqlEngine engine(data->get(), meta->get());
  ASSERT_TRUE(engine.EnsureSnapIds().ok());
  ASSERT_TRUE((*data)->Exec("CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE((*data)->Exec("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(engine.CommitWithSnapshot("2020-01-01 00:00:00").ok());

  // The registry outlives nothing here: it is scoped inside the store's
  // lifetime, and the handle deregisters the gauges when it goes out of
  // scope.
  MetricsRegistry reg;
  ScopedCleanup gauges = (*data)->store()->RegisterMetrics(&reg);
  MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.gauges.at("snapshot_store.latest_snapshot"), 1);
  EXPECT_EQ(snap.gauges.at("snapshot_store.earliest_snapshot"), 1);
  EXPECT_EQ(snap.gauges.count("snapshot_store.cache.hits"), 1u);

  // Overwriting t's page archives the prior version, which the pagelog
  // gauges observe live (no republish step).
  ASSERT_TRUE((*data)->Exec("BEGIN; INSERT INTO t VALUES (2)").ok());
  ASSERT_TRUE(engine.CommitWithSnapshot("2020-01-02 00:00:00").ok());
  snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.gauges.at("snapshot_store.latest_snapshot"), 2);
  EXPECT_GE(snap.gauges.at("snapshot_store.pagelog.records"), 1);
}

// --- engine-level equality: registry delta == legacy RqlRunStats -----------

class EngineMetricsTest : public ::testing::Test {
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
        data_->Exec("CREATE TABLE items (id INTEGER, st TEXT)").ok());
    int id = 0;
    for (int s = 1; s <= 4; ++s) {
      std::string sql = "BEGIN";
      for (int r = 0; r < 3; ++r) {
        ++id;
        sql += "; INSERT INTO items VALUES (" + std::to_string(id) + ", '" +
               (id % 2 == 0 ? "O" : "F") + "')";
      }
      ASSERT_TRUE(data_->Exec(sql).ok());
      ASSERT_TRUE(engine_
                      ->CommitWithSnapshot("2020-02-0" + std::to_string(s) +
                                           " 00:00:00")
                      .ok());
    }
    engine_->mutable_options()->metrics = &registry_;
  }

  // Asserts the delta taken around `run` equals the legacy struct, field
  // by published field.
  void ExpectDeltaMatchesStats(const std::function<Status()>& run) {
    MetricsRegistry::Snapshot before = registry_.TakeSnapshot();
    Status s = run();
    ASSERT_TRUE(s.ok()) << s.ToString();
    MetricsRegistry::Snapshot delta =
        registry_.TakeSnapshot().DeltaFrom(before);
    const RqlRunStats& stats = engine_->last_run_stats();

    EXPECT_EQ(delta.counter("rql.runs"), 1);
    EXPECT_EQ(delta.counter("rql.iterations"),
              static_cast<int64_t>(stats.iterations.size()));
    EXPECT_EQ(delta.counter("rql.iterations_skipped"),
              stats.iterations_skipped);
    EXPECT_EQ(delta.counter("rql.qq_parse_count"), stats.qq_parse_count);
    EXPECT_EQ(delta.counter("rql.total_us"), stats.TotalUs());
    EXPECT_EQ(delta.counter("rql.shared_page_hits"),
              stats.shared_page_hits);
    EXPECT_EQ(delta.counter("rql.coalesced_loads"), stats.coalesced_loads);
    EXPECT_EQ(delta.counter("rql.archive_read_retries"),
              stats.archive_read_retries);
    EXPECT_EQ(delta.counter("rql.result_reuses"),
              stats.result_reused ? 1 : 0);
    EXPECT_EQ(delta.counter("rql.qs_reuses"), stats.qs_reused ? 1 : 0);

    int64_t spt = 0, query = 0, index = 0, udf = 0, rows = 0;
    int64_t maplog = 0, plog = 0, db = 0, hits = 0, plans = 0;
    int64_t vbatches = 0, vrows = 0, vfallback = 0;
    for (const RqlIterationStats& it : stats.iterations) {
      spt += it.spt_build_us;
      query += it.query_eval_us;
      index += it.index_create_us;
      udf += it.udf_us;
      rows += it.qq_rows;
      maplog += it.maplog_pages;
      plog += it.pagelog_pages;
      db += it.db_pages;
      hits += it.cache_hits;
      plans += it.plan_cache_hits;
      vbatches += it.batches_scanned;
      vrows += it.batch_rows;
      vfallback += it.batch_fallback_rows;
    }
    EXPECT_EQ(delta.counter("rql.spt_build_us"), spt);
    EXPECT_EQ(delta.counter("rql.query_eval_us"), query);
    EXPECT_EQ(delta.counter("rql.index_create_us"), index);
    EXPECT_EQ(delta.counter("rql.udf_us"), udf);
    EXPECT_EQ(delta.counter("rql.qq_rows"), rows);
    EXPECT_EQ(delta.counter("rql.maplog_pages"), maplog);
    EXPECT_EQ(delta.counter("rql.pagelog_pages"), plog);
    EXPECT_EQ(delta.counter("rql.db_pages"), db);
    EXPECT_EQ(delta.counter("rql.cache_hits"), hits);
    EXPECT_EQ(delta.counter("rql.plan_cache_hits"), plans);
    EXPECT_EQ(delta.counter("rql.batches_scanned"), vbatches);
    EXPECT_EQ(delta.counter("rql.batch_rows"), vrows);
    EXPECT_EQ(delta.counter("rql.batch_fallback_rows"), vfallback);

    const auto& hist = delta.histograms.at("rql.iteration_us");
    EXPECT_EQ(hist.count, static_cast<int64_t>(stats.iterations.size()));
    EXPECT_EQ(delta.histograms.at("rql.run_us").count, 1);
  }

  storage::InMemoryEnv env_;
  MetricsRegistry registry_;
  std::unique_ptr<sql::Database> data_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<RqlEngine> engine_;
};

TEST_F(EngineMetricsTest, CollateDataDeltaMatchesLegacyStats) {
  ExpectDeltaMatchesStats([this] {
    return engine_->CollateData(
        "SELECT snap_id FROM SnapIds",
        "SELECT id, current_snapshot() AS sid FROM items WHERE st = 'O'",
        "M1");
  });
}

TEST_F(EngineMetricsTest, AggregateDataInVariableDeltaMatchesLegacyStats) {
  ExpectDeltaMatchesStats([this] {
    return engine_->AggregateDataInVariable(
        "SELECT snap_id FROM SnapIds",
        "SELECT COUNT(*) AS c FROM items WHERE st = 'O'", "M2", "avg");
  });
}

TEST_F(EngineMetricsTest, AggregateDataInTableDeltaMatchesLegacyStats) {
  ExpectDeltaMatchesStats([this] {
    return engine_->AggregateDataInTable(
        "SELECT snap_id FROM SnapIds", "SELECT id, st FROM items", "M3",
        "(st,max)");
  });
}

TEST_F(EngineMetricsTest, CollateDataIntoIntervalsDeltaMatchesLegacyStats) {
  ExpectDeltaMatchesStats([this] {
    return engine_->CollateDataIntoIntervals(
        "SELECT snap_id FROM SnapIds", "SELECT id, st FROM items", "M4");
  });
}

TEST_F(EngineMetricsTest, FlagsOnDeltaStillMatchesLegacyStats) {
  RqlOptions* opts = engine_->mutable_options();
  opts->profile = RqlProfile::kFast;
  sql::SharedScanCache run_cache({.max_bytes = 0});  // this run's only
  opts->shared_scan_cache = &run_cache;
  auto run_memo = std::make_unique<retro::MemoTable>();
  opts->memo = run_memo.get();
  ExpectDeltaMatchesStats([this] {
    return engine_->CollateData(
        "SELECT snap_id FROM SnapIds",
        "SELECT id, current_snapshot() AS sid FROM items WHERE st = 'O'",
        "M5");
  });
}

TEST_F(EngineMetricsTest, ReusedResultDeltaMatchesLegacyStats) {
  auto memo = std::make_unique<retro::MemoTable>();
  engine_->mutable_options()->memo = memo.get();
  auto run = [this] {
    return engine_->AggregateDataInTable("SELECT snap_id FROM SnapIds",
                                         "SELECT id, st FROM items", "M9",
                                         "(st,max)");
  };
  ExpectDeltaMatchesStats(run);
  EXPECT_FALSE(engine_->last_run_stats().result_reused);
  // The identical rerun keeps the table: one reuse, every iteration a
  // memo hit.
  ExpectDeltaMatchesStats(run);
  const RqlRunStats& stats = engine_->last_run_stats();
  EXPECT_TRUE(stats.result_reused);
  ASSERT_EQ(stats.iterations.size(), 4u);
  for (const RqlIterationStats& it : stats.iterations) {
    EXPECT_EQ(it.memo_hits, 1);
  }
  // The first run's fold wrote only its own result table, so the rerun
  // already reuses Qs's list; the kept run wrote nothing, so the next one
  // does too.
  EXPECT_TRUE(stats.qs_reused);
  ExpectDeltaMatchesStats(run);
  EXPECT_TRUE(engine_->last_run_stats().qs_reused);
}

TEST_F(EngineMetricsTest, BatchExecutionDeltaMatchesLegacyStats) {
  engine_->mutable_options()->profile = RqlProfile::kFast;
  ExpectDeltaMatchesStats([this] {
    return engine_->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT id, st FROM items WHERE st = 'O'",
                                "M8");
  });
  // The plain single-table Qq actually took the batch path.
  int64_t batches = 0;
  for (const RqlIterationStats& it : engine_->last_run_stats().iterations) {
    batches += it.batches_scanned;
  }
  EXPECT_GT(batches, 0);
}

TEST_F(EngineMetricsTest, ParallelDeltaMatchesLegacyStats) {
  engine_->mutable_options()->parallel_workers = 4;
  ExpectDeltaMatchesStats([this] {
    return engine_->CollateData(
        "SELECT snap_id FROM SnapIds",
        "SELECT id, current_snapshot() AS sid FROM items WHERE st = 'O'",
        "M6");
  });
}

TEST_F(EngineMetricsTest, ValidationFailurePublishesNothing) {
  MetricsRegistry::Snapshot before = registry_.TakeSnapshot();
  Status s = engine_->CollateData("SELECT snap_id FROM SnapIds",
                                  "SELECT FROM WHERE", "M7");
  EXPECT_FALSE(s.ok());
  // A run rejected by up-front validation leaves the registry untouched,
  // matching the cleared legacy struct (both read as all-zero).
  MetricsRegistry::Snapshot delta =
      registry_.TakeSnapshot().DeltaFrom(before);
  EXPECT_EQ(delta.counter("rql.runs"), 0);
  EXPECT_EQ(delta.counter("rql.iterations"), 0);
  EXPECT_TRUE(engine_->last_run_stats().iterations.empty());
}

TEST_F(EngineMetricsTest, DefaultRegistryUsedWhenUnset) {
  engine_->mutable_options()->metrics = nullptr;
  EXPECT_EQ(engine_->metrics(), MetricsRegistry::Default());
  MetricsRegistry::Snapshot before = engine_->metrics()->TakeSnapshot();
  ASSERT_TRUE(engine_
                  ->CollateData("SELECT snap_id FROM SnapIds",
                                "SELECT id FROM items", "M8")
                  .ok());
  MetricsRegistry::Snapshot delta =
      engine_->metrics()->TakeSnapshot().DeltaFrom(before);
  EXPECT_EQ(delta.counter("rql.runs"), 1);
}

}  // namespace
}  // namespace rql
