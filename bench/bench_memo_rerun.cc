// Cross-run memoization: materialized retrospective views in memory.
//
// A retrospective computation over a fixed snapshot set is deterministic,
// so its per-iteration Qq results can be memoized keyed by (canonical
// query fingerprint, page-version read set) and replayed on any later
// identical run that shares the retro::MemoTable, as the daemon's
// sessions share its one table. This bench runs CollateData over a
// 48-snapshot set four times on UW30:
//
//   baseline   memo-less oracle (the byte-identity reference),
//   cold       a fresh memo: no iteration hits; each one executes and
//              publishes its rows, or replays its predecessor through
//              the delta fast path,
//   warm       the identical run into the same table on the cold run's
//              memo: the engine revalidates the cold run's read sets and
//              keeps its result table,
//   warm_fold  the identical run on the same memo into a fresh table, so
//              it replays every iteration from memo entries and folds
//              their rows. A memo hit replays without moving the run's
//              snapshot-set cursor, so the run reads no Maplog page.
//
// The four runs repeat kRepeats times, each repeat from a fresh memo,
// and each run's time is its median over the repeats: one run of 30-120
// ms at CI's scale factor moves with host load.
//
// Self-checks (CI gates): in every repeat, every result table is
// byte-identical to the baseline, the warm run keeps the cold run's table
// (result_reused) and the warm_fold run replays >= 90% of its iterations
// (memo hits plus fast-path replays), every one of them a memo hit with
// no miss and no Maplog page read; the median warm_fold run is >= 3x
// faster than the median cold one. Results, with each run's Maplog pages,
// go to BENCH_memo.json (CI artifact).

#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "rql/memo_table.h"

namespace rql::bench {
namespace {

constexpr int kSnapshots = 48;
constexpr int kRepeats = 3;

struct RunResult {
  double total_ms = 0;
  int64_t iterations = 0;
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
  int64_t skipped = 0;  // delta fast-path replays
  int64_t maplog_pages = 0;
  bool result_reused = false;
  std::vector<std::string> rows;  // encoded result table, in table order
};

RunResult RunOnce(tpch::History* history, const std::string& qs,
                  const std::string& qq, const std::string& table) {
  // Comparable Pagelog I/O across runs: every run starts page-cold. The
  // warm runs' advantage must come from the memo, not the page cache.
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(history->engine()->CollateData(qs, qq, table));

  RunResult r;
  const RqlRunStats& stats = history->engine()->last_run_stats();
  r.total_ms = RunTotalMs(stats);
  r.iterations = static_cast<int64_t>(stats.iterations.size());
  r.skipped = stats.iterations_skipped;
  r.result_reused = stats.result_reused;
  for (const RqlIterationStats& it : stats.iterations) {
    r.memo_hits += it.memo_hits;
    r.memo_misses += it.memo_misses;
    r.maplog_pages += it.maplog_pages;
  }
  auto rows = history->meta()->Query("SELECT * FROM " + table);
  if (!rows.ok()) Fail(rows.status(), "dump the result table");
  for (const sql::Row& row : rows->rows) {
    r.rows.push_back(sql::EncodeRow(row));
  }
  return r;
}

void WriteRunJson(JsonWriter* json, const char* key, const RunResult& r) {
  json->BeginObject(key);
  json->Field("total_ms", r.total_ms);
  json->Field("iterations", r.iterations);
  json->Field("memo_hits", r.memo_hits);
  json->Field("memo_misses", r.memo_misses);
  json->Field("iterations_skipped", r.skipped);
  json->Field("maplog_pages", r.maplog_pages);
  json->Field("result_reused", r.result_reused);
  json->EndObject();
}

/// One repeat of the four runs.
struct Passes {
  RunResult baseline, cold, warm, warm_fold;
};

/// The repeat whose `run` took the median time, so the counters reported
/// beside that time come from the same run.
const RunResult& Median(const std::vector<Passes>& reps,
                        RunResult Passes::*run) {
  std::vector<const RunResult*> runs;
  for (const Passes& p : reps) runs.push_back(&(p.*run));
  std::sort(runs.begin(), runs.end(),
            [](const RunResult* a, const RunResult* b) {
              return a->total_ms < b->total_ms;
            });
  return *runs[runs.size() / 2];
}

/// The identity, reuse and replay checks every repeat must pass.
bool CheckRepeat(const Passes& p) {
  bool ok = true;
  if (p.cold.rows != p.baseline.rows) {
    std::printf("CHECK FAILED: cold memoized result table differs from "
                "the memo-less baseline\n");
    ok = false;
  }
  if (p.warm.rows != p.baseline.rows) {
    std::printf("CHECK FAILED: warm memoized result table differs from "
                "the memo-less baseline\n");
    ok = false;
  }
  if (p.warm_fold.rows != p.baseline.rows) {
    std::printf("CHECK FAILED: warm_fold result table differs from the "
                "memo-less baseline\n");
    ok = false;
  }
  if (!p.warm.result_reused || p.cold.result_reused ||
      p.warm_fold.result_reused) {
    std::printf("CHECK FAILED: only the warm run into the cold run's table "
                "should keep it (reused: cold=%d warm=%d warm_fold=%d)\n",
                p.cold.result_reused, p.warm.result_reused,
                p.warm_fold.result_reused);
    ok = false;
  }
  if (p.cold.memo_hits != 0 ||
      p.cold.memo_misses + p.cold.skipped != p.cold.iterations) {
    std::printf("CHECK FAILED: cold run on a fresh memo should hit nothing "
                "and execute or fast-path every iteration (hits=%lld "
                "misses=%lld skipped=%lld of %lld)\n",
                static_cast<long long>(p.cold.memo_hits),
                static_cast<long long>(p.cold.memo_misses),
                static_cast<long long>(p.cold.skipped),
                static_cast<long long>(p.cold.iterations));
    ok = false;
  }
  const int64_t warm_replays = p.warm_fold.memo_hits + p.warm_fold.skipped;
  if (warm_replays * 10 < p.warm_fold.iterations * 9) {
    std::printf("CHECK FAILED: warm_fold run replayed %lld of %lld "
                "iterations (< 90%%)\n",
                static_cast<long long>(warm_replays),
                static_cast<long long>(p.warm_fold.iterations));
    ok = false;
  }
  // The cold run registered every snapshot, and a hit moves no cursor.
  if (p.warm_fold.memo_hits != p.warm_fold.iterations ||
      p.warm_fold.memo_misses != 0 || p.warm_fold.maplog_pages != 0) {
    std::printf("CHECK FAILED: warm_fold run should hit every iteration "
                "without reading the Maplog (hits=%lld misses=%lld of %lld, "
                "maplog_pages=%lld)\n",
                static_cast<long long>(p.warm_fold.memo_hits),
                static_cast<long long>(p.warm_fold.memo_misses),
                static_cast<long long>(p.warm_fold.iterations),
                static_cast<long long>(p.warm_fold.maplog_pages));
    ok = false;
  }
  return ok;
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  tpch::History* history = uw30->get();
  RqlEngine* engine = history->engine();

  const std::string qs = history->QsInterval(1, kSnapshots);
  // A selective date keeps the replayed fold small relative to the full
  // scan each miss pays, so the warm/cold gap measures memoization, not
  // result-table insert throughput (both runs pay that identically).
  const std::string qq = QqCollate("1992-06-01");

  std::printf("Cross-run memoization: CollateData(Qs_%d ascending, "
              "Qq_collate), UW30\n\n", kSnapshots);

  std::vector<Passes> reps(kRepeats);
  for (Passes& p : reps) {
    p.baseline = RunOnce(history, qs, qq, "MemoRerun");

    // Every repeat starts memo-cold.
    retro::MemoTable memo;
    engine->mutable_options()->memo = &memo;
    p.cold = RunOnce(history, qs, qq, "MemoRerun");
    // The same table first: the cold run's is still the last one written.
    p.warm = RunOnce(history, qs, qq, "MemoRerun");
    p.warm_fold = RunOnce(history, qs, qq, "MemoRerunFold");
    engine->mutable_options()->memo = nullptr;
  }
  const RunResult& baseline = Median(reps, &Passes::baseline);
  const RunResult& cold = Median(reps, &Passes::cold);
  const RunResult& warm = Median(reps, &Passes::warm);
  const RunResult& warm_fold = Median(reps, &Passes::warm_fold);

  const double speedup =
      warm_fold.total_ms > 0 ? cold.total_ms / warm_fold.total_ms : 0;
  std::printf("%-10s %10s %6s %6s %8s %7s %7s\n", "run", "total_ms",
              "hits", "misses", "skipped", "maplog", "reused");
  for (const auto& [name, r] : {std::pair<const char*, const RunResult&>{
                                    "baseline", baseline},
                                {"cold", cold},
                                {"warm", warm},
                                {"warm_fold", warm_fold}}) {
    std::printf("%-10s %10.2f %6lld %6lld %8lld %7lld %7s\n", name,
                r.total_ms, static_cast<long long>(r.memo_hits),
                static_cast<long long>(r.memo_misses),
                static_cast<long long>(r.skipped),
                static_cast<long long>(r.maplog_pages),
                r.result_reused ? "yes" : "no");
  }
  std::printf("\nmedians of %d repeats; warm_fold speedup over cold: "
              "%.1fx\n", kRepeats, speedup);

  bool checks_ok = true;
  for (const Passes& p : reps) {
    if (!CheckRepeat(p)) checks_ok = false;
  }
  if (warm_fold.total_ms * 3 > cold.total_ms) {
    std::printf("CHECK FAILED: warm_fold run %.2fms vs cold %.2fms "
                "(< 3x speedup)\n", warm_fold.total_ms, cold.total_ms);
    checks_ok = false;
  }

  JsonWriter json("BENCH_memo.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.Field("snapshots", kSnapshots);
  WriteRunJson(&json, "baseline", baseline);
  WriteRunJson(&json, "cold", cold);
  WriteRunJson(&json, "warm", warm);
  WriteRunJson(&json, "warm_fold", warm_fold);
  json.Field("warm_fold_speedup_over_cold", speedup, 2);
  json.Field("repeats", kRepeats);
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf("\nExpected: identical result tables in all four runs; the "
              "warm run keeps the cold\nrun's table; the warm_fold run, on "
              "the cold run's memo, replays >= 90%%\nof its iterations "
              "(memo hits or fast path), all of them memo hits reading no\n"
              "Maplog page, and finishes >= 3x faster than the publishing "
              "cold run.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
