#ifndef RQL_BENCH_BENCH_COMMON_H_
#define RQL_BENCH_BENCH_COMMON_H_

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "rql/rql.h"
#include "tpch/workload.h"

namespace rql::bench {

/// Scale factor for all benchmark databases. The paper uses TPC-H SF 1;
/// we default to SF 0.01 (15K orders) and keep the overwrite-cycle lengths
/// identical, so every sharing ratio the figures depend on is preserved.
/// Override with RQL_BENCH_SF.
inline double Sf() {
  const char* env = std::getenv("RQL_BENCH_SF");
  return env != nullptr ? std::atof(env) : 0.01;
}

/// Histories are expensive to build, so they are persisted across bench
/// binaries in ./rql_bench_cache (PosixEnv files) and reopened on reuse.
inline storage::Env* BenchEnv() {
  static storage::PosixEnv* env = new storage::PosixEnv();
  ::mkdir("rql_bench_cache", 0755);
  return env;
}

/// Standard history sizes. Figure 6's step-10 series over up to 30
/// snapshots spans 300 snapshots of history; adding the longest overwrite
/// cycle (UW15: 100) plus margin keeps the whole span "old".
inline constexpr int kStandardSnapshots = 420;
inline constexpr int kSmallSnapshots = 70;  // intervals memory study

/// Opens (building on first use) the history `key` over `env`, which must
/// reach the same files as BenchEnv(): a wrapper such as
/// storage::ReadLatencyEnv around it.
inline Result<std::unique_ptr<tpch::History>> GetHistory(
    const std::string& key, storage::Env* env = BenchEnv()) {
  tpch::HistoryConfig config;
  config.tpch.scale_factor = Sf();
  if (key == "uw30") {
    config.workload = tpch::WorkloadSpec::UW30();
    config.snapshots = kStandardSnapshots;
  } else if (key == "uw15") {
    config.workload = tpch::WorkloadSpec::UW15();
    config.snapshots = kStandardSnapshots;
  } else if (key == "uw30_lpk") {
    config.workload = tpch::WorkloadSpec::UW30();
    config.snapshots = 160;
    config.tpch.index_lineitem_partkey = true;
  } else if (key == "uw7_5") {
    config.workload = tpch::WorkloadSpec::UW7_5();
    config.snapshots = kSmallSnapshots;
  } else if (key == "uw15_small") {
    config.workload = tpch::WorkloadSpec::UW15();
    config.snapshots = kSmallSnapshots;
  } else if (key == "uw30_small") {
    config.workload = tpch::WorkloadSpec::UW30();
    config.snapshots = kSmallSnapshots;
  } else if (key == "uw60") {
    config.workload = tpch::WorkloadSpec::UW60();
    config.snapshots = kSmallSnapshots;
  } else {
    return Status::InvalidArgument("unknown history key: " + key);
  }
  std::fprintf(stderr, "[bench] opening history %s (SF %.3f) ...\n",
               key.c_str(), Sf());
  Stopwatch sw;
  auto history =
      tpch::BuildHistory(env, "rql_bench_cache/" + key, config);
  if (history.ok()) {
    // Retro maintains the Skippy index as snapshots are declared; warm it
    // here so its one-off construction never pollutes a measured query.
    Status warm = (*history)->data()->store()->maplog()->PrewarmSkippy();
    if (!warm.ok()) return warm;
    std::fprintf(stderr, "[bench] history %s ready in %.1fs (Slast=%u)\n",
                 key.c_str(), sw.ElapsedSeconds(),
                 (*history)->last_snapshot());
  }
  return history;
}

// --- Table 1: the paper's queries ----------------------------------------

/// Qq_io: I/O intensive, computationally light.
inline constexpr char kQqIo[] =
    "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'";

/// Qq_cpu: computationally heavy join (drives covering-index creation).
inline constexpr char kQqCpu[] =
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, part "
    "WHERE p_partkey = l_partkey AND p_type = 'STANDARD POLISHED TIN'";

/// Qq_collate: output size controlled by the date predicate.
inline std::string QqCollate(const std::string& date) {
  return "SELECT o_orderkey FROM orders WHERE o_orderdate < '" + date + "'";
}

/// Qq_agg: the across-snapshot GROUP BY workload.
inline constexpr char kQqAgg[] =
    "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av "
    "FROM orders GROUP BY o_custkey";

/// One-aggregate variant of Qq_agg. By the mechanism's definition every
/// Qq output column outside the pair list becomes a grouping column, so
/// the single-aggregate experiments must not return `av` (otherwise each
/// distinct (o_custkey, av) pair becomes its own group and the result
/// table balloons — see EXPERIMENTS.md).
inline constexpr char kQqAgg1[] =
    "SELECT o_custkey, COUNT(*) AS cn FROM orders GROUP BY o_custkey";

/// Qq_int: full projection used by the intervals study.
inline constexpr char kQqInt[] = "SELECT o_orderkey, o_custkey FROM orders";

// --- the device cost model ------------------------------------------------

/// Simulated device costs that turn the engine's page counts into the
/// times of the paper's SSD testbed (Section 5). The engine reports
/// measured time and page counts only; the figures charge each Pagelog
/// page read and each Maplog page an SPT build scans one 4K random read.
/// The current state is memory-resident: its pages cost nothing.
struct CostModel {
  int64_t pagelog_read_us = 100;      // one 4K random read from the archive
  int64_t maplog_page_read_us = 100;  // one log page during an SPT scan

  /// Simulated Pagelog I/O time of `pagelog_pages` archive reads.
  int64_t IoUs(int64_t pagelog_pages) const {
    return pagelog_pages * pagelog_read_us;
  }
  /// SPT build time: the measured scan CPU plus simulated Maplog reads.
  int64_t SptUs(int64_t spt_cpu_us, int64_t maplog_pages) const {
    return spt_cpu_us + maplog_pages * maplog_page_read_us;
  }
  /// Everything simulated: what a derived total adds to measured time.
  int64_t ChargeUs(int64_t pagelog_pages, int64_t maplog_pages) const {
    return IoUs(pagelog_pages) + maplog_pages * maplog_page_read_us;
  }
};

inline constexpr CostModel kCostModel;

/// An iteration's derived time: its measured phases plus the simulated
/// Pagelog and Maplog reads.
inline int64_t DerivedUs(const RqlIterationStats& it) {
  return it.TotalUs() +
         kCostModel.ChargeUs(it.pagelog_pages, it.maplog_pages);
}

/// A run's derived time. A parallel run keeps the engine's wall-derived
/// total: its workers' iterations overlap, so their phases (and charges)
/// do not add up to its latency.
inline int64_t DerivedUs(const RqlRunStats& stats) {
  if (stats.parallel) return stats.TotalUs();
  int64_t total = 0;
  for (const RqlIterationStats& it : stats.iterations) total += DerivedUs(it);
  return total;
}

/// The derived time of the one run a registry delta was taken around,
/// from the counters the engine publishes (rql.total_us and the page
/// counts), in milliseconds.
inline double DerivedMs(const retro::MetricsRegistry::Snapshot& delta) {
  int64_t total = delta.counter("rql.total_us");
  if (delta.counter("rql.parallel_runs") == 0) {
    total += kCostModel.ChargeUs(delta.counter("rql.pagelog_pages"),
                                 delta.counter("rql.maplog_pages"));
  }
  return total / 1000.0;
}

// --- measurement helpers ---------------------------------------------------

struct Breakdown {
  double io_ms = 0;
  double spt_ms = 0;
  double query_ms = 0;
  double index_ms = 0;
  double udf_ms = 0;
  double total_ms = 0;
  double pagelog_pages = 0;
  double db_pages = 0;
  double probes = 0;
  double inserts = 0;
  double updates = 0;
};

inline Breakdown FromIteration(const RqlIterationStats& it) {
  Breakdown b;
  b.io_ms = kCostModel.IoUs(it.pagelog_pages) / 1000.0;
  b.spt_ms = kCostModel.SptUs(it.spt_build_us, it.maplog_pages) / 1000.0;
  b.query_ms = it.query_eval_us / 1000.0;
  b.index_ms = it.index_create_us / 1000.0;
  b.udf_ms = it.udf_us / 1000.0;
  b.total_ms = DerivedUs(it) / 1000.0;
  b.pagelog_pages = static_cast<double>(it.pagelog_pages);
  b.db_pages = static_cast<double>(it.db_pages);
  b.probes = static_cast<double>(it.result_probes);
  b.inserts = static_cast<double>(it.result_inserts);
  b.updates = static_cast<double>(it.result_updates);
  return b;
}

/// Mean over iterations [first, last); use first=1 to skip the cold one.
inline Breakdown MeanIterations(const RqlRunStats& stats, size_t first,
                                size_t last = SIZE_MAX) {
  Breakdown sum;
  size_t n = 0;
  if (last > stats.iterations.size()) last = stats.iterations.size();
  for (size_t i = first; i < last; ++i) {
    Breakdown b = FromIteration(stats.iterations[i]);
    sum.io_ms += b.io_ms;
    sum.spt_ms += b.spt_ms;
    sum.query_ms += b.query_ms;
    sum.index_ms += b.index_ms;
    sum.udf_ms += b.udf_ms;
    sum.total_ms += b.total_ms;
    sum.pagelog_pages += b.pagelog_pages;
    sum.db_pages += b.db_pages;
    sum.probes += b.probes;
    sum.inserts += b.inserts;
    sum.updates += b.updates;
    ++n;
  }
  if (n == 0) return sum;
  sum.io_ms /= n;
  sum.spt_ms /= n;
  sum.query_ms /= n;
  sum.index_ms /= n;
  sum.udf_ms /= n;
  sum.total_ms /= n;
  sum.pagelog_pages /= n;
  sum.db_pages /= n;
  sum.probes /= n;
  sum.inserts /= n;
  sum.updates /= n;
  return sum;
}

inline void PrintBreakdownHeader(const char* label_header) {
  std::printf("%-34s %9s %9s %9s %9s %9s %10s %8s %8s\n", label_header,
              "io_ms", "spt_ms", "query_ms", "index_ms", "udf_ms",
              "total_ms", "plogpg", "dbpg");
}

inline void PrintBreakdownRow(const std::string& label, const Breakdown& b) {
  std::printf("%-34s %9.2f %9.2f %9.2f %9.2f %9.2f %10.2f %8.0f %8.0f\n",
              label.c_str(), b.io_ms, b.spt_ms, b.query_ms, b.index_ms,
              b.udf_ms, b.total_ms, b.pagelog_pages, b.db_pages);
}

/// Derived total of the last run in milliseconds.
inline double RunTotalMs(const RqlRunStats& stats) {
  return DerivedUs(stats) / 1000.0;
}

/// The repeat whose `wall_ms` is the median, so the counters reported
/// beside that time come from the same repeat.
template <typename Repeat>
const Repeat& MedianRepeat(const std::vector<Repeat>& repeats) {
  std::vector<const Repeat*> sorted;
  for (const Repeat& r : repeats) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const Repeat* a, const Repeat* b) {
              return a->wall_ms < b->wall_ms;
            });
  return *sorted[sorted.size() / 2];
}

inline void Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

#define BENCH_CHECK(expr)                        \
  do {                                           \
    ::rql::Status _st = (expr);                  \
    if (!_st.ok()) ::rql::bench::Fail(_st, #expr); \
  } while (false)

/// What the paper's all-cold baseline costs (Section 5.1, the denominator
/// of ratio C): the summed per-iteration costs of every snapshot answered
/// as if nothing were shared with the snapshot before it.
struct AllColdCost {
  double total_ms = 0;
  int64_t pagelog_pages = 0;
  int64_t maplog_pages = 0;
  int64_t db_pages = 0;
};

/// Measures the all-cold baseline of the snapshot set `qs` selects: one
/// paper-faithful, memo-free, one-snapshot run per snapshot, each starting
/// on an empty snapshot cache. `run(one_qs)` runs the measured mechanism
/// on `engine` with a Qs selecting one snapshot. The engine's options are
/// restored afterwards.
template <typename RunFn>
Result<AllColdCost> MeasureAllCold(RqlEngine* engine, const std::string& qs,
                                   RunFn&& run) {
  RQL_ASSIGN_OR_RETURN(sql::QueryResult snaps, engine->meta_db()->Query(qs));
  const RqlOptions saved = engine->options();
  RqlOptions* options = engine->mutable_options();
  options->profile = RqlProfile::kPaperFaithful;
  options->memo = nullptr;
  options->shared_scan_cache = nullptr;
  AllColdCost cost;
  Status s = Status::OK();
  for (size_t i = 0; i < snaps.rows.size(); ++i) {
    engine->data_db()->store()->ClearSnapshotCache();
    s = run("SELECT snap_id FROM SnapIds WHERE snap_id = " +
            snaps.rows[i][0].ToString());
    if (!s.ok()) break;
    for (const RqlIterationStats& it : engine->last_run_stats().iterations) {
      cost.total_ms += DerivedUs(it) / 1000.0;
      cost.pagelog_pages += it.pagelog_pages;
      cost.maplog_pages += it.maplog_pages;
      cost.db_pages += it.db_pages;
    }
  }
  *options = saved;
  RQL_RETURN_IF_ERROR(s);
  return cost;
}

/// "pagelog/maplog/db" page totals, as the figure benches print them.
inline std::string PageTotals(const AllColdCost& cost) {
  return std::to_string(cost.pagelog_pages) + "/" +
         std::to_string(cost.maplog_pages) + "/" +
         std::to_string(cost.db_pages);
}

/// Ratio C of the snapshot set `qs` selects (Section 5.1): the cost of one
/// run over the whole set, started on a cold snapshot cache, over its
/// all-cold baseline. An unmeasured first run warms everything else (OS
/// file cache, allocator). `run` is as for MeasureAllCold.
struct RatioC {
  double c = 0;
  AllColdCost all_cold;
};

template <typename RunFn>
RatioC MeasureRatioC(RqlEngine* engine, const std::string& qs, RunFn&& run) {
  retro::SnapshotStore* store = engine->data_db()->store();
  for (int i = 0; i < 2; ++i) {
    store->ClearSnapshotCache();
    Status s = run(qs);
    if (!s.ok()) Fail(s, "ratio C run");
  }
  const double rql_ms = RunTotalMs(engine->last_run_stats());
  Result<AllColdCost> all_cold = MeasureAllCold(engine, qs, run);
  if (!all_cold.ok()) Fail(all_cold.status(), "all-cold baseline");
  RatioC r;
  r.all_cold = *all_cold;
  r.c = r.all_cold.total_ms > 0 ? rql_ms / r.all_cold.total_ms : 0.0;
  return r;
}

// --- machine-readable output -----------------------------------------------

/// Streaming writer for the BENCH_*.json artifacts the self-checking
/// benches emit for CI. Handles the comma/indent bookkeeping the benches
/// used to hand-roll; values interleave freely with stdout reporting.
/// String values are written verbatim (callers pass plain identifiers).
class JsonWriter {
 public:
  explicit JsonWriter(const char* path) : f_(std::fopen(path, "w")) {
    if (f_ == nullptr) {
      Fail(Status::Internal(std::string("cannot open ") + path), "json");
    }
  }
  ~JsonWriter() { Close(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void Close() {
    if (f_ == nullptr) return;
    std::fputc('\n', f_);
    std::fclose(f_);
    f_ = nullptr;
  }

  void BeginObject(const char* key = nullptr) { Open(key, '{'); }
  void EndObject() { CloseScope('}'); }
  void BeginArray(const char* key = nullptr) { Open(key, '['); }
  void EndArray() { CloseScope(']'); }

  void Field(const char* key, const char* v) {
    Prefix(key);
    std::fprintf(f_, "\"%s\"", v);
  }
  void Field(const char* key, const std::string& v) { Field(key, v.c_str()); }
  void Field(const char* key, bool v) {
    Prefix(key);
    std::fputs(v ? "true" : "false", f_);
  }
  void Field(const char* key, double v, int precision = 3) {
    Prefix(key);
    std::fprintf(f_, "%.*f", precision, v);
  }
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  void Field(const char* key, T v) {
    Prefix(key);
    std::fprintf(f_, "%lld", static_cast<long long>(v));
  }

 private:
  // Comma-separates members, breaks the line, and indents to the current
  // depth; `key` is null for array elements.
  void Prefix(const char* key) {
    if (!scope_is_empty_.empty()) {
      if (!scope_is_empty_.back()) std::fputc(',', f_);
      scope_is_empty_.back() = false;
      std::fputc('\n', f_);
      for (size_t i = 0; i < scope_is_empty_.size(); ++i) {
        std::fputs("  ", f_);
      }
    }
    if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
  }
  void Open(const char* key, char bracket) {
    Prefix(key);
    std::fputc(bracket, f_);
    scope_is_empty_.push_back(true);
  }
  void CloseScope(char bracket) {
    bool empty = scope_is_empty_.back();
    scope_is_empty_.pop_back();
    if (!empty) {
      std::fputc('\n', f_);
      for (size_t i = 0; i < scope_is_empty_.size(); ++i) {
        std::fputs("  ", f_);
      }
    }
    std::fputc(bracket, f_);
  }

  std::FILE* f_;
  std::vector<bool> scope_is_empty_;  // per open scope: no members yet
};

/// Writes the "race_dependent" array: the paths of this artifact's fields
/// whose values depend on how concurrent runs or workers interleave, so
/// they change from run to run of the same code. A path names a field
/// from the root ("shared_cache.misses"); "[]" stands for every element of
/// an array ("clients[].coalesced_decodes"). tools/compare_bench_counts.py
/// skips them when it compares two builds' counts.
inline void WriteRaceDependent(JsonWriter* json,
                               std::initializer_list<const char*> paths) {
  json->BeginArray("race_dependent");
  for (const char* path : paths) json->Field(nullptr, path);
  json->EndArray();
}

// --- observability JSON ----------------------------------------------------

/// Dumps an RqlTrace under `key` as
/// {"capacity":N,"emitted":N,"dropped":N,"events":[{...}]}; each event
/// carries t_us, type (RqlTrace::TypeName), snapshot, worker and the raw
/// args array (per-type meaning documented in rql/trace.h).
inline void WriteTraceJson(JsonWriter* json, const char* key,
                           const RqlTrace& trace) {
  json->BeginObject(key);
  json->Field("capacity", static_cast<int64_t>(trace.capacity()));
  json->Field("emitted", trace.emitted());
  json->Field("dropped", trace.dropped());
  json->BeginArray("events");
  for (const RqlTraceEvent& ev : trace.Events()) {
    json->BeginObject();
    json->Field("t_us", ev.t_us);
    json->Field("type", RqlTrace::TypeName(ev.type));
    json->Field("snapshot", static_cast<int64_t>(ev.snapshot));
    json->Field("worker", static_cast<int64_t>(ev.worker));
    json->BeginArray("args");
    for (int64_t a : ev.args) json->Field(nullptr, a);
    json->EndArray();
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

/// JSONL form: one event object per line, for streaming consumers.
inline void WriteTraceJsonl(const RqlTrace& trace, std::FILE* f) {
  for (const RqlTraceEvent& ev : trace.Events()) {
    std::fprintf(f,
                 "{\"t_us\": %lld, \"type\": \"%s\", \"snapshot\": %lld, "
                 "\"worker\": %d, \"args\": [%lld, %lld, %lld, %lld, %lld, "
                 "%lld]}\n",
                 static_cast<long long>(ev.t_us), RqlTrace::TypeName(ev.type),
                 static_cast<long long>(ev.snapshot),
                 static_cast<int>(ev.worker),
                 static_cast<long long>(ev.args[0]),
                 static_cast<long long>(ev.args[1]),
                 static_cast<long long>(ev.args[2]),
                 static_cast<long long>(ev.args[3]),
                 static_cast<long long>(ev.args[4]),
                 static_cast<long long>(ev.args[5]));
  }
}

/// Dumps a MetricsRegistry snapshot (or delta) under `key` as
/// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum_us,
/// buckets}}}. Zero-valued counters/gauges are elided unless
/// `include_zero` (deltas read better without them; equality checks want
/// everything).
inline void WriteMetricsJson(JsonWriter* json, const char* key,
                             const retro::MetricsRegistry::Snapshot& snap,
                             bool include_zero = false) {
  json->BeginObject(key);
  json->BeginObject("counters");
  for (const auto& [name, v] : snap.counters) {
    if (include_zero || v != 0) json->Field(name.c_str(), v);
  }
  json->EndObject();
  json->BeginObject("gauges");
  for (const auto& [name, v] : snap.gauges) {
    if (include_zero || v != 0) json->Field(name.c_str(), v);
  }
  json->EndObject();
  json->BeginObject("histograms");
  for (const auto& [name, h] : snap.histograms) {
    if (!include_zero && h.count == 0) continue;
    json->BeginObject(name.c_str());
    json->Field("count", h.count);
    json->Field("sum_us", h.sum_us);
    json->BeginArray("buckets");
    for (int64_t b : h.buckets) json->Field(nullptr, b);
    json->EndArray();
    json->EndObject();
  }
  json->EndObject();
  json->EndObject();
}

}  // namespace rql::bench

#endif  // RQL_BENCH_BENCH_COMMON_H_
