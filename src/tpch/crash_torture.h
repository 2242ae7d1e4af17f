#ifndef RQL_TPCH_CRASH_TORTURE_H_
#define RQL_TPCH_CRASH_TORTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace rql::tpch {

/// Configuration of the crash-recovery torture harness.
///
/// The harness runs a TPC-H update workload that declares snapshots
/// (one explicit transaction of RF2+RF1 refreshes per snapshot), first
/// fault-free to enumerate every durability sync point and record oracle
/// answers, then once per sync point with a simulated crash (all un-synced
/// data lost) at exactly that point. After each crash it reopens the
/// database from the surviving bytes and asserts:
///   (a) WAL recovery restores exactly a committed-prefix state;
///   (b) every surviving snapshot answers AS OF queries byte-identically
///       to the fault-free run;
///   (c) the RQL mechanisms (CollateData, AggregateDataInTable) over the
///       surviving snapshot set match the fault-free oracle byte-for-byte,
///       without a memo and through two memoized passes on a fresh one.
struct TortureConfig {
  /// TPC-H scale factor of the base database (0.0002 -> 30 customers,
  /// 300 orders: small enough to re-run the workload once per sync point).
  double scale_factor = 0.0002;
  /// Snapshots declared: round 1 is the bulk load, rounds 2..snapshots
  /// each delete and insert `orders_per_snapshot` orders.
  int snapshots = 5;
  int orders_per_snapshot = 2;
  uint64_t seed = 42;
  /// Cap on the number of kill points exercised (0 = all of them).
  int max_kill_points = 0;
  /// Emit one report log line per kill point instead of only failures.
  bool verbose = false;
};

struct TortureReport {
  /// Durability sync points in the fault-free run (the kill-point space).
  int sync_points = 0;
  /// Kill points actually exercised (== sync_points unless capped).
  int kill_points = 0;
  /// Kill runs that crashed, recovered and passed all checks.
  int completed_runs = 0;
  std::vector<std::string> log;
};

/// Runs the full torture schedule. Any recovery-invariant violation is
/// returned as a non-OK status naming the kill point and the failed check.
Status RunCrashTorture(const TortureConfig& config, TortureReport* report);

}  // namespace rql::tpch

#endif  // RQL_TPCH_CRASH_TORTURE_H_
