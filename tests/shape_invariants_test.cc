// Regression guards for the performance *shapes* the paper's evaluation
// establishes (EXPERIMENTS.md). These run the real TPC-H workload at tiny
// scale and assert the deterministic page-count relationships behind each
// figure — not wall-clock times, which would flake.

#include <gtest/gtest.h>

#include "bench_common.h"
#include "tpch/workload.h"

namespace rql {
namespace {

class ShapeInvariantsTest : public ::testing::Test {
 protected:
  static tpch::History* history() {
    static tpch::History* h = [] {
      static storage::InMemoryEnv env;
      tpch::HistoryConfig config;
      config.tpch.scale_factor = 0.002;  // 3000 orders
      config.workload = tpch::WorkloadSpec::UW30();
      config.snapshots = 120;  // > 2 overwrite cycles
      auto built = tpch::BuildHistory(&env, "shape", config);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      return built.ok() ? built->release() : nullptr;
    }();
    return h;
  }

  static int64_t TotalPagelogPages(const RqlRunStats& stats) {
    int64_t total = 0;
    for (const auto& it : stats.iterations) total += it.pagelog_pages;
    return total;
  }
};

// Figure 6/8: within a run over consecutive old snapshots, the cold first
// iteration fetches far more archive pages than any hot iteration.
TEST_F(ShapeInvariantsTest, ColdIterationDominatesArchiveFetches) {
  RqlEngine* engine = history()->engine();
  history()->data()->store()->ClearSnapshotCache();
  ASSERT_TRUE(engine
                  ->AggregateDataInVariable(
                      history()->QsInterval(1, 20),
                      "SELECT COUNT(*) FROM orders WHERE "
                      "o_orderstatus = 'O'",
                      "Result", "avg")
                  .ok());
  const RqlRunStats& stats = engine->last_run_stats();
  ASSERT_EQ(stats.iterations.size(), 20u);
  int64_t cold = stats.iterations[0].pagelog_pages;
  for (size_t i = 1; i < stats.iterations.size(); ++i) {
    EXPECT_LT(stats.iterations[i].pagelog_pages, cold / 3)
        << "iteration " << i;
  }
}

// Figure 6: the all-cold run fetches strictly more archive pages than the
// shared (cached) run over the same snapshot set.
TEST_F(ShapeInvariantsTest, SharingReducesTotalFetches) {
  RqlEngine* engine = history()->engine();
  std::string qs = history()->QsInterval(1, 15);
  const char* qq = "SELECT COUNT(*) FROM orders";

  auto run = [&](const std::string& q) {
    return engine->AggregateDataInVariable(q, qq, "Result", "avg");
  };
  history()->data()->store()->ClearSnapshotCache();
  ASSERT_TRUE(run(qs).ok());
  int64_t shared = TotalPagelogPages(engine->last_run_stats());

  auto all_cold = bench::MeasureAllCold(engine, qs, run);
  ASSERT_TRUE(all_cold.ok()) << all_cold.status().ToString();

  EXPECT_LT(shared, all_cold->pagelog_pages / 2);
}

// Figure 7/8: iterating a recent snapshot reads most pages from the
// current database, an old snapshot from the archive.
TEST_F(ShapeInvariantsTest, RecentSnapshotsShareWithCurrentState) {
  RqlEngine* engine = history()->engine();
  retro::SnapshotId slast = history()->last_snapshot();
  const char* qq = "SELECT COUNT(*) FROM orders";
  retro::SnapshotStore* store = history()->data()->store();

  store->ClearSnapshotCache();
  ASSERT_TRUE(engine
                  ->AggregateDataInVariable(history()->QsInterval(1, 1), qq,
                                            "Result", "avg")
                  .ok());
  const RqlIterationStats old_iter =
      engine->last_run_stats().iterations[0];

  store->ClearSnapshotCache();
  ASSERT_TRUE(engine
                  ->AggregateDataInVariable(
                      history()->QsInterval(slast, 1), qq, "Result", "avg")
                  .ok());
  const RqlIterationStats recent_iter =
      engine->last_run_stats().iterations[0];

  EXPECT_GT(old_iter.pagelog_pages, 10 * recent_iter.pagelog_pages);
  EXPECT_GT(recent_iter.db_pages, old_iter.db_pages);
}

// Table 1 / Section 4: the non-shared page set saturates after one
// overwrite cycle (UW30: 50 snapshots).
TEST_F(ShapeInvariantsTest, OverwriteCycleSaturation) {
  retro::SnapshotStore* store = history()->data()->store();
  retro::SnapshotId slast = store->latest_snapshot();
  auto spt_size = [&](int age) {
    auto view = store->OpenSnapshot(slast - static_cast<uint32_t>(age));
    EXPECT_TRUE(view.ok());
    return view.ok() ? (*view)->spt_size() : 0;
  };
  uint64_t at_10 = spt_size(10);
  uint64_t at_cycle = spt_size(50);
  uint64_t at_old = spt_size(100);
  EXPECT_LT(at_10, at_cycle / 2);
  // Beyond one cycle the table stops growing (within churn slack).
  EXPECT_LT(at_old, at_cycle + at_cycle / 10);
  EXPECT_GT(at_old, at_cycle - at_cycle / 10);
}

// Figure 11/§5.3: aggregate result tables are far smaller than collated
// ones and independent of the snapshot-set size.
TEST_F(ShapeInvariantsTest, AggregationBoundsResultFootprint) {
  RqlEngine* engine = history()->engine();
  const char* qq =
      "SELECT o_custkey, COUNT(*) AS cn FROM orders GROUP BY o_custkey";
  ASSERT_TRUE(engine
                  ->CollateData(history()->QsInterval(1, 20), qq, "Collate")
                  .ok());
  ASSERT_TRUE(engine
                  ->AggregateDataInTable(history()->QsInterval(1, 20), qq,
                                         "Agg", "(cn,max)")
                  .ok());
  auto collate = history()->meta()->GetTableStats("Collate");
  auto agg = history()->meta()->GetTableStats("Agg");
  ASSERT_TRUE(collate.ok() && agg.ok());
  EXPECT_GT(collate->rows, 10 * agg->rows);

  // Doubling the snapshot set doubles the collate table but not the
  // aggregate table.
  ASSERT_TRUE(engine
                  ->AggregateDataInTable(history()->QsInterval(1, 40), qq,
                                         "Agg40", "(cn,max)")
                  .ok());
  auto agg40 = history()->meta()->GetTableStats("Agg40");
  ASSERT_TRUE(agg40.ok());
  EXPECT_EQ(agg40->rows, agg->rows);
}

// §5.3: the intervals representation is an order of magnitude smaller
// than collation and grows sublinearly with the update rate.
TEST_F(ShapeInvariantsTest, IntervalsCompactHistory) {
  RqlEngine* engine = history()->engine();
  const char* qq = "SELECT o_orderkey FROM orders";
  std::string qs = history()->QsInterval(10, 30);
  ASSERT_TRUE(engine->CollateData(qs, qq, "Naive").ok());
  ASSERT_TRUE(engine->CollateDataIntoIntervals(qs, qq, "Compact").ok());
  auto naive = history()->meta()->GetTableStats("Naive");
  auto compact = history()->meta()->GetTableStats("Compact");
  ASSERT_TRUE(naive.ok() && compact.ok());
  EXPECT_GT(naive->rows, 5 * compact->rows);
}

}  // namespace
}  // namespace rql
