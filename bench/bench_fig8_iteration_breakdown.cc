// Reproduces Figure 8: single-iteration cost breakdown (I/O, SPT build,
// query evaluation, RQL UDF) for AggregateDataInVariable(Qs_50, Qq_io,
// AVG) with update workload UW30, at different points of the snapshot
// history: old snapshots, Slast-50, Slast-25, Slast, and the current
// state.
//
// Expected shape (paper): for old snapshots the cold iteration is
// dominated by Pagelog I/O and hot iterations are far cheaper; iterations
// on recent snapshots fetch most pages from the memory-resident current
// database, so both cold and hot costs fall sharply as the snapshot
// approaches Slast; the current state has no snapshot overhead at all.

#include "bench_common.h"

namespace rql::bench {
namespace {

void RunPoint(tpch::History* history, const std::string& label,
              retro::SnapshotId start, int count) {
  RqlEngine* engine = history->engine();
  // Iteration 0 is the cold one: the run starts on an empty snapshot cache.
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(engine->AggregateDataInVariable(
      history->QsInterval(start, count), kQqIo, "Result", "avg"));
  const RqlRunStats& stats = engine->last_run_stats();
  PrintBreakdownRow(label + " cold iteration",
                    FromIteration(stats.iterations[0]));
  PrintBreakdownRow(label + " hot iteration", MeanIterations(stats, 1));
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  tpch::History* history = uw30->get();
  retro::SnapshotId slast = history->last_snapshot();

  std::printf("Figure 8: single-iteration cost breakdown, "
              "AggregateDataInVariable(Qs_50, Qq_io, AVG), UW30\n");
  PrintBreakdownHeader("iteration");

  RunPoint(history, "old snapshot", 1, 50);
  RunPoint(history, "Slast-50", slast - 50, 25);
  RunPoint(history, "Slast-25", slast - 25, 25);

  // Slast alone: cold iteration on the newest snapshot (fully shared with
  // the current database).
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(history->engine()->AggregateDataInVariable(
      history->QsInterval(slast, 1), kQqIo, "Result", "avg"));
  PrintBreakdownRow(
      "Slast hot iteration",
      FromIteration(history->engine()->last_run_stats().iterations[0]));

  // Current state: plain Qq, no snapshot machinery.
  {
    sql::Database* db = history->data();
    Stopwatch sw;
    BENCH_CHECK(db->Exec(kQqIo));
    Breakdown b;
    b.query_ms = sw.ElapsedSeconds() * 1000.0;
    b.total_ms = b.query_ms;
    PrintBreakdownRow("current state", b);
  }

  std::printf(
      "\nExpected: old cold >> old hot (sharing); Slast-25 cheaper than "
      "Slast-50;\nSlast and current state have (almost) no Pagelog I/O.\n");
  return 0;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
