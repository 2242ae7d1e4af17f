// Reproduces Figure 7: ratio C for intervals of recent snapshots, as a
// function of the interval's starting snapshot, for UW30 and UW15 with
// AggregateDataInVariable(Qs, Qq_io, AVG), consecutive snapshots (step 1).
//
// Expected shape (paper): for interval starts older than
// Slast - OverwriteCycle, C(x) first falls as x becomes more recent (the
// measured RQL cost falls while the all-cold cost is constant), then rises
// again as the all-cold cost itself starts falling and converges towards
// the RQL cost for the most recent intervals.
//
// Machine-readable output goes to BENCH_sharing_recent.json (CI
// artifact). Self-check: on the most recent interval of each workload the
// page-sharing options (a run-scoped SharedScanCache + a run-scoped memo,
// a fresh MemoTable) must reproduce the flags-off
// result table byte-for-byte — the recent end of the history is where
// snapshots share pages with the current database, so versioned and
// unversioned reads mix in one run.

#include <vector>

#include "bench_common.h"
#include "sql/shared_scan_cache.h"

namespace rql::bench {
namespace {

// The earliest interval to include a snapshot sharing pages with the
// current database starts at Slast - OverwriteCycle - kIntervalLen.
constexpr int kIntervalLen = 20;

RatioC MeasureC(tpch::History* history, retro::SnapshotId start) {
  RqlEngine* engine = history->engine();
  return MeasureRatioC(
      engine, history->QsInterval(start, kIntervalLen, 1),
      [&](const std::string& qs) {
        return engine->AggregateDataInVariable(qs, kQqIo, "Result", "avg");
      });
}

std::vector<std::string> DumpTable(tpch::History* history,
                                   const char* table) {
  auto rows = history->meta()->Query(std::string("SELECT * FROM ") + table);
  if (!rows.ok()) Fail(rows.status(), "dump result table");
  std::vector<std::string> out;
  for (const sql::Row& row : rows->rows) out.push_back(sql::EncodeRow(row));
  return out;
}

bool Series(const char* name, tpch::History* history, int overwrite_cycle,
            JsonWriter* json) {
  bool ok = true;
  retro::SnapshotId slast = history->last_snapshot();
  std::printf("\n%s (overwrite cycle %d snapshots, Slast=%u):\n", name,
              overwrite_cycle, slast);
  std::printf("%-26s %10s %24s\n", "interval start", "ratio C",
              "all-cold plog/mlog/db");
  json->BeginObject();
  json->Field("workload", name);
  json->Field("overwrite_cycle", overwrite_cycle);
  json->BeginArray("series");
  int earliest_offset = overwrite_cycle + kIntervalLen + 20;
  for (int offset = earliest_offset; offset >= kIntervalLen; offset -= 10) {
    auto start = static_cast<retro::SnapshotId>(
        static_cast<int>(slast) - offset);
    RatioC r = MeasureC(history, start);
    double c = r.c;
    std::printf("Slast-%-20d %10.3f %24s\n", offset, c,
                PageTotals(r.all_cold).c_str());
    json->BeginObject();
    json->Field("offset", offset);
    json->Field("c", c);
    json->EndObject();
    // Timing ratios are noisy at smoke scale; the hard check is only that
    // every measured pair of runs completed and produced a ratio.
    if (c <= 0) {
      std::printf("CHECK FAILED: non-positive ratio C at Slast-%d\n", offset);
      ok = false;
    }
  }
  json->EndArray();

  // Flag-identity on the most recent interval: snapshots here read a mix
  // of archived page versions (cacheable) and current-database pages
  // (not cacheable), and TPC-H touches orders every snapshot,
  // so nothing may skip.
  RqlEngine* engine = history->engine();
  std::string qs = history->QsInterval(
      static_cast<retro::SnapshotId>(static_cast<int>(slast) - kIntervalLen),
      kIntervalLen, 1);
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(engine->AggregateDataInVariable(qs, kQqIo, "Base", "avg"));
  std::vector<std::string> base = DumpTable(history, "Base");
  sql::SharedScanCache run_cache({.max_bytes = 0});  // this run's only
  auto run_memo = std::make_unique<retro::MemoTable>();
  engine->mutable_options()->shared_scan_cache = &run_cache;
  engine->mutable_options()->memo = run_memo.get();
  // Counters come from the metrics registry the engine publishes into at
  // run end (delta around the run == the run's RqlRunStats).
  retro::MetricsRegistry* metrics = engine->metrics();
  retro::MetricsRegistry::Snapshot before = metrics->TakeSnapshot();
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(engine->AggregateDataInVariable(qs, kQqIo, "Flagged", "avg"));
  retro::MetricsRegistry::Snapshot delta =
      metrics->TakeSnapshot().DeltaFrom(before);
  engine->mutable_options()->shared_scan_cache = nullptr;
  engine->mutable_options()->memo = nullptr;
  const int64_t iterations_skipped = delta.counter("rql.iterations_skipped");
  const int64_t shared_page_hits = delta.counter("rql.shared_page_hits");
  bool rows_match = DumpTable(history, "Flagged") == base;
  std::printf("flags-on identity on recent interval: %s "
              "(skipped=%lld, hits=%lld)\n", rows_match ? "ok" : "DIFFERS",
              static_cast<long long>(iterations_skipped),
              static_cast<long long>(shared_page_hits));
  json->Field("flags_rows_match", rows_match);
  json->Field("flags_iterations_skipped", iterations_skipped);
  json->Field("flags_shared_page_hits", shared_page_hits);
  json->EndObject();
  if (!rows_match) {
    std::printf("CHECK FAILED: %s flags-on result table differs from "
                "flags-off\n", name);
    ok = false;
  }
  if (iterations_skipped != 0) {
    std::printf("CHECK FAILED: %s skipped %lld iterations on a history "
                "that changes orders every snapshot\n", name,
                static_cast<long long>(iterations_skipped));
    ok = false;
  }
  return ok;
}

int Run() {
  auto uw30 = GetHistory("uw30");
  auto uw15 = GetHistory("uw15");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  if (!uw15.ok()) Fail(uw15.status(), "uw15 history");

  std::printf("Figure 7: ratio C with recent snapshots "
              "(AggregateDataInVariable(Qs_%d, Qq_io, AVG))\n", kIntervalLen);
  JsonWriter json("BENCH_sharing_recent.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.Field("interval_len", kIntervalLen);
  json.BeginArray("workloads");
  bool checks_ok = true;
  if (!Series("UW30", uw30->get(), 50, &json)) checks_ok = false;
  if (!Series("UW15", uw15->get(), 100, &json)) checks_ok = false;
  json.EndArray();
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf(
      "\nExpected: C falls while the interval start is old (RQL cost "
      "drops,\nall-cold constant), then rises as the interval becomes "
      "recent and the\nall-cold cost converges to the RQL cost.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
