// Decision-support retrospection over a TPC-H database: builds a small
// TPC-H instance, applies the refresh-function update workload with
// per-refresh snapshots (the paper's Section 5 setup), then answers
// business questions across the snapshot history, reporting the per-
// iteration cost breakdown RQL exposes.
//
// Build & run:  ./examples/tpch_retrospect

#include <cstdio>

#include "rql/rql.h"
#include "storage/env.h"
#include "tpch/workload.h"

using rql::RqlEngine;
using rql::Status;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "error at %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

void Print(rql::sql::Database* db, const std::string& title,
           const std::string& sql) {
  std::printf("\n== %s\n", title.c_str());
  auto result = db->Query(sql);
  Check(result.status(), sql.c_str());
  for (const auto& col : result->columns) std::printf("%-16s", col.c_str());
  std::printf("\n");
  for (const auto& row : result->rows) {
    for (const auto& value : row) {
      std::printf("%-16s", value.ToString().c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  rql::storage::InMemoryEnv env;
  rql::tpch::HistoryConfig config;
  config.tpch.scale_factor = 0.002;  // 3000 orders — runs in a second
  config.workload = rql::tpch::WorkloadSpec::UW30();
  config.snapshots = 60;

  std::printf("building TPC-H history (%d snapshots, %s)...\n",
              config.snapshots, config.workload.name.c_str());
  auto history = rql::tpch::BuildHistory(&env, "tpch", config);
  Check(history.status(), "build history");
  RqlEngine* rql = (*history)->engine();
  rql::sql::Database* meta = (*history)->meta();

  // Average number of open orders per snapshot (the paper's Qq_io).
  Check(rql->AggregateDataInVariable(
            "SELECT snap_id FROM SnapIds",
            "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'",
            "AvgOpenOrders", "avg"),
        "avg open orders");
  Print(meta, "average open orders per snapshot",
        "SELECT * FROM AvgOpenOrders");

  // Which snapshot held the highest total pending value?
  Check(rql->CollateData(
            "SELECT snap_id FROM SnapIds",
            "SELECT current_snapshot() AS sid, SUM(o_totalprice) AS pending "
            "FROM orders WHERE o_orderstatus = 'O'",
            "PendingBySnap"),
        "pending value");
  Print(meta, "top 5 snapshots by pending order value",
        "SELECT sid, pending FROM PendingBySnap "
        "ORDER BY pending DESC LIMIT 5");

  // Per-customer peak: the most orders any snapshot ever showed, using
  // the across-time GROUP BY mechanism. It starts on an empty snapshot
  // cache, as the paper's runs do, so its first iteration is the cold one.
  (*history)->data()->store()->ClearSnapshotCache();
  Check(rql->AggregateDataInTable(
            "SELECT snap_id FROM SnapIds",
            "SELECT o_custkey, COUNT(*) AS cn FROM orders "
            "GROUP BY o_custkey",
            "PeakOrders", "(cn,max)"),
        "per-customer peak");
  Print(meta, "customers with the highest single-snapshot order count",
        "SELECT o_custkey, cn FROM PeakOrders ORDER BY cn DESC LIMIT 5");

  // Cost breakdown of the last RQL run (what the paper's Figure 8 plots).
  const rql::RqlRunStats& stats = rql->last_run_stats();
  std::printf("\n== cost breakdown of the last RQL query (%zu iterations)\n",
              stats.iterations.size());
  std::printf("%-10s %8s %10s %10s %10s\n", "snapshot", "plog_pg",
              "spt_us", "query_us", "udf_us");
  for (size_t i = 0; i < stats.iterations.size(); i += 13) {
    const rql::RqlIterationStats& it = stats.iterations[i];
    std::printf("%-10u %8lld %10lld %10lld %10lld\n", it.snapshot,
                static_cast<long long>(it.pagelog_pages),
                static_cast<long long>(it.spt_build_us),
                static_cast<long long>(it.query_eval_us),
                static_cast<long long>(it.udf_us));
  }

  std::printf("\ntpch_retrospect finished OK\n");
  return 0;
}
