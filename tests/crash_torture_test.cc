// Crash-recovery torture: run the snapshotting TPC-H update workload once
// fault-free to enumerate every durability sync point, then kill the
// storage Env at each of them (losing all un-synced data), recover, and
// check the committed-prefix / snapshot-byte-identity / RQL-oracle
// invariants, memoized passes included. See tpch/crash_torture.h for the
// exact invariants.

#include "tpch/crash_torture.h"

#include <gtest/gtest.h>

#include <iostream>

namespace rql::tpch {
namespace {

TEST(CrashTortureTest, EverySyncPointRecovers) {
  TortureConfig config;
  TortureReport report;
  Status s = RunCrashTorture(config, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The workload has at least: a handful of schema auto-commits, plus
  // per-round commit (pagelog, maplog, WAL, db), declaration-mark and
  // SnapIds syncs for each of the 5 snapshots.
  EXPECT_GE(report.sync_points, 40);
  EXPECT_EQ(report.kill_points, report.sync_points);
  EXPECT_EQ(report.completed_runs, report.kill_points);
  std::cout << "[torture] sync points enumerated: " << report.sync_points
            << ", kill points exercised: " << report.kill_points
            << ", recovered+verified: " << report.completed_runs << "\n";
}

TEST(CrashTortureTest, CappedRunExercisesPrefix) {
  TortureConfig config;
  config.snapshots = 3;
  config.max_kill_points = 10;
  config.verbose = true;
  TortureReport report;
  Status s = RunCrashTorture(config, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(report.kill_points, 10);
  EXPECT_EQ(report.completed_runs, 10);
  EXPECT_EQ(report.log.size(), 10u);
}

}  // namespace
}  // namespace rql::tpch
