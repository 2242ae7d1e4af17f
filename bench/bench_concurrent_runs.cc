// Store-scoped shared scan cache: concurrent RQL runs over one store.
//
// Four clients — each its own sql::Database handle Attach()ed to ONE
// SnapshotStore, its own metadata database and its own RqlEngine — run
// CollateData over heavily overlapping 40-snapshot intervals (staggered
// starts 1, 5, 9, 13; odd clients sweep descending so independent runs
// do not walk the history in lockstep), concurrently on four threads.
// The store runs over a storage::ReadLatencyEnv that simulates a
// bandwidth-limited cold archive — per-load latency plus a single read
// slot, so concurrent reads queue — and keeps a deliberately small
// snapshot page cache, so every decoded-page re-read the caching layer
// fails to absorb costs a real archive round trip. Three configurations:
//
//   oracle   each client sequentially from a cold page cache, flag-off
//            defaults, no simulated latency: the byte-identity reference.
//   private  concurrent, one run-scoped SharedScanCache per client.
//            Overlapping clients decode every shared page version once
//            PER CLIENT — up to 4x duplicated fetch + decode work.
//   shared   concurrent, one sql::SharedScanCache attached to all four
//            engines: cross-run hits and per-version single-flight
//            decode.
//
// The two concurrent configs repeat kRepeats times, each repeat with
// fresh clients and caches from a cold page cache, and each config's
// wall time is its median over the repeats: one pass of a few hundred ms
// moves with host load.
//
// Self-checks (CI gates), every count and identity check in every repeat:
//   * every unique page version is decoded exactly once in the shared
//     config (cache inserts == resident entries, no evictions, no
//     abandoned decodes);
//   * coalesced_decodes > 0 — concurrent runs actually blocked on each
//     other's in-flight decodes instead of duplicating them;
//   * per-iteration attribution is exact: client-summed hits / misses /
//     coalesced equal the cache's own global counters;
//   * the median aggregate throughput of the shared config is >= 2x the
//     private config's under the same latency;
//   * both concurrent configs' result tables are byte-identical to the
//     sequential flag-off oracle, per client.
//
// Results go to BENCH_concurrent.json (CI artifact).

#include "bench_common.h"

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sql/shared_scan_cache.h"
#include "storage/env.h"
#include "storage/latency_env.h"

namespace rql::bench {
namespace {

constexpr int kClients = 4;
constexpr int kRepeats = 3;
constexpr int kSnapshotsPerClient = 40;
/// Client i's interval starts at 1 + i*kStagger: consecutive clients
/// share 36 of their 40 snapshots, so most page versions are common.
constexpr int kStagger = 4;
constexpr int64_t kArchiveLatencyUs = 2000;
/// Far below the per-client working set, so a version evicted between
/// two clients' visits pays the archive latency again unless the shared
/// cache (which pins entries independently of the pool) serves it.
constexpr uint64_t kSnapshotCachePages = 32;
constexpr char kResultTable[] = "ConcOut";
/// Computationally trivial on purpose: per-iteration evaluation cost is
/// paid identically with or without the shared cache, so the query keeps
/// it minimal and the measurement isolates what the cache actually
/// shares — archive fetches and page decodes.
constexpr char kQqCount[] = "SELECT COUNT(*) FROM orders";

struct Client {
  std::unique_ptr<storage::InMemoryEnv> meta_env;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<RqlEngine> engine;
  std::string qs;
  // Harvested after each run.
  double wall_ms = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t coalesced = 0;
  std::vector<std::string> rows;  // encoded result table, in table order
};

/// Builds kClients independent engines over `history`'s data store. Each
/// gets a private in-memory metadata database seeded with the SnapIds
/// rows its Qs needs — the paper's architecture, one application client
/// at a time.
std::vector<Client> MakeClients(tpch::History* history,
                                const RqlOptions& base) {
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    Client& c = clients[i];
    c.meta_env = std::make_unique<storage::InMemoryEnv>();
    auto meta = sql::Database::Open(c.meta_env.get(), "meta");
    if (!meta.ok()) Fail(meta.status(), "open client meta db");
    c.meta = std::move(*meta);
    auto data = sql::Database::Attach(history->data()->store());
    if (!data.ok()) Fail(data.status(), "attach client data db");
    c.data = std::move(*data);
    c.engine = std::make_unique<RqlEngine>(c.data.get(), c.meta.get(), base);
    BENCH_CHECK(c.engine->EnsureSnapIds());
    for (retro::SnapshotId s = 1; s <= history->last_snapshot(); ++s) {
      auto row = c.meta->AppendRow(
          "SnapIds", {sql::Value::Integer(s), sql::Value::Text("snap"),
                      sql::Value::Text("")});
      if (!row.ok()) Fail(row.status(), "populate client SnapIds");
    }
    c.qs = history->QsInterval(1 + i * kStagger, kSnapshotsPerClient);
    // Odd clients sweep their interval in descending order. Independent
    // clients are not synchronized in practice; lockstep ascending sweeps
    // would let even a tiny page cache serve every cross-client re-read,
    // hiding exactly the duplication this bench measures.
    if (i % 2 == 1) c.qs += " DESC";  // QsInterval ends in ORDER BY snap_id
  }
  return clients;
}

void RunOne(Client* c) {
  Stopwatch sw;
  BENCH_CHECK(c->engine->CollateData(c->qs, kQqCount, kResultTable));
  c->wall_ms = sw.ElapsedSeconds() * 1000.0;
  const RqlRunStats& stats = c->engine->last_run_stats();
  c->hits = stats.shared_page_hits;
  c->misses = stats.scan_cache_misses;
  c->coalesced = stats.coalesced_decodes;
  auto rows = c->meta->Query(std::string("SELECT * FROM ") + kResultTable);
  if (!rows.ok()) Fail(rows.status(), "dump result table");
  c->rows.clear();
  for (const sql::Row& row : rows->rows) {
    c->rows.push_back(sql::EncodeRow(row));
  }
}

/// Runs every client on its own thread; returns aggregate wall ms.
double RunConcurrent(std::vector<Client>* clients) {
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (Client& c : *clients) {
    threads.emplace_back([&c] { RunOne(&c); });
  }
  for (std::thread& t : threads) t.join();
  return sw.ElapsedSeconds() * 1000.0;
}

void WriteConfigJson(JsonWriter* json, const char* key,
                     const std::vector<Client>& clients, double wall_ms) {
  json->BeginObject(key);
  json->Field("wall_ms", wall_ms);
  json->BeginArray("clients");
  for (const Client& c : clients) {
    json->BeginObject();
    json->Field("wall_ms", c.wall_ms);
    json->Field("scan_cache_hits", c.hits);
    json->Field("scan_cache_misses", c.misses);
    json->Field("coalesced_decodes", c.coalesced);
    json->Field("result_rows", static_cast<int64_t>(c.rows.size()));
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

/// One repeat of a concurrent config: fresh clients and caches, run from
/// a cold page cache.
struct Pass {
  std::vector<Client> clients;
  /// The config's decoded-page caches: one per client (private) or one
  /// attached to every client (shared).
  std::vector<std::unique_ptr<sql::SharedScanCache>> caches;
  double wall_ms = 0;
};

Pass RunPass(tpch::History* history, bool shared) {
  // Both concurrent configs run the fast profile: page-at-a-time
  // evaluation and one Qq plan per run keep per-iteration CPU small
  // relative to archive I/O, which is the regime the shared cache
  // targets.
  RqlOptions opts;
  opts.profile = RqlProfile::kFast;
  Pass p;
  if (shared) {
    p.caches.push_back(std::make_unique<sql::SharedScanCache>());
    opts.shared_scan_cache = p.caches.back().get();
  }
  p.clients = MakeClients(history, opts);
  if (!shared) {
    for (Client& c : p.clients) {
      p.caches.push_back(std::make_unique<sql::SharedScanCache>(
          sql::SharedScanCache::Options{.max_bytes = 0}));
      c.engine->mutable_options()->shared_scan_cache = p.caches.back().get();
    }
  }
  history->data()->store()->ClearSnapshotCache();
  p.wall_ms = RunConcurrent(&p.clients);
  return p;
}

/// The identity, single-decode, coalescing and attribution checks every
/// repeat must pass.
bool CheckRepeat(int repeat, const Pass& priv, const Pass& shared,
                 const std::vector<Client>& oracle) {
  bool ok = true;
  for (int i = 0; i < kClients; ++i) {
    if (priv.clients[i].rows != oracle[i].rows) {
      std::printf("CHECK FAILED: repeat %d: private-cache client %d result "
                  "table differs from the sequential oracle\n", repeat, i);
      ok = false;
    }
    if (shared.clients[i].rows != oracle[i].rows) {
      std::printf("CHECK FAILED: repeat %d: shared-cache client %d result "
                  "table differs from the sequential oracle\n", repeat, i);
      ok = false;
    }
  }
  const sql::SharedScanCache::Stats cs = shared.caches[0]->GetStats();
  if (cs.inserts != static_cast<int64_t>(cs.entries) || cs.evictions != 0 ||
      cs.abandoned_decodes != 0) {
    std::printf("CHECK FAILED: repeat %d: expected every unique version "
                "decoded once (inserts=%lld entries=%llu evictions=%lld "
                "abandoned=%lld)\n", repeat,
                static_cast<long long>(cs.inserts),
                static_cast<unsigned long long>(cs.entries),
                static_cast<long long>(cs.evictions),
                static_cast<long long>(cs.abandoned_decodes));
    ok = false;
  }
  if (cs.coalesced_decodes <= 0) {
    std::printf("CHECK FAILED: repeat %d: no coalesced decodes — concurrent "
                "runs never waited on each other's in-flight decode\n",
                repeat);
    ok = false;
  }
  int64_t sum_hits = 0;
  int64_t sum_misses = 0;
  int64_t sum_coalesced = 0;
  for (const Client& c : shared.clients) {
    sum_hits += c.hits;
    sum_misses += c.misses;
    sum_coalesced += c.coalesced;
  }
  if (sum_hits != cs.shared_hits || sum_misses != cs.misses ||
      sum_coalesced != cs.coalesced_decodes) {
    std::printf("CHECK FAILED: repeat %d: per-iteration attribution drifted "
                "from the cache's global counters (clients %lld/%lld/%lld "
                "vs cache %lld/%lld/%lld)\n", repeat,
                static_cast<long long>(sum_hits),
                static_cast<long long>(sum_misses),
                static_cast<long long>(sum_coalesced),
                static_cast<long long>(cs.shared_hits),
                static_cast<long long>(cs.misses),
                static_cast<long long>(cs.coalesced_decodes));
    ok = false;
  }
  return ok;
}

int Run() {
  storage::ReadLatencyEnv env(BenchEnv());
  auto uw15 = GetHistory("uw15_small", &env);
  if (!uw15.ok()) Fail(uw15.status(), "uw15_small history");
  tpch::History* history = uw15->get();
  retro::SnapshotStore* store = history->data()->store();

  std::printf("Shared scan cache: %d concurrent CollateData(Qq_io) runs, "
              "%d overlapping snapshots each, UW15\n\n",
              kClients, kSnapshotsPerClient);

  // Oracle: sequential, flag-off, each run from a cold page cache, no
  // simulated latency. Defines the byte-identity reference per client.
  RqlOptions oracle_opts;
  std::vector<Client> oracle = MakeClients(history, oracle_opts);
  for (Client& c : oracle) {
    store->ClearSnapshotCache();
    RunOne(&c);
  }

  // Every concurrent pass runs under identical store conditions: cold
  // page cache, simulated archive latency, a page cache far smaller than
  // the working set.
  env.set_read_latency_us(kArchiveLatencyUs);
  env.set_read_slots(1);
  store->snapshot_cache()->set_capacity(kSnapshotCachePages);
  std::vector<Pass> privs;
  std::vector<Pass> shareds;
  for (int r = 0; r < kRepeats; ++r) {
    privs.push_back(RunPass(history, /*shared=*/false));
    shareds.push_back(RunPass(history, /*shared=*/true));
  }

  const Pass& priv_median = MedianRepeat(privs);
  const Pass& shared_median = MedianRepeat(shareds);
  const std::vector<Client>& priv = priv_median.clients;
  const std::vector<Client>& shared = shared_median.clients;
  const double wall_private = priv_median.wall_ms;
  const double wall_shared = shared_median.wall_ms;
  const sql::SharedScanCache::Stats cs =
      shared_median.caches[0]->GetStats();
  const double speedup = wall_shared > 0 ? wall_private / wall_shared : 0;

  std::printf("%-10s %10s %10s %10s %10s\n", "config", "wall_ms", "hits",
              "misses", "coalesced");
  auto print_config = [](const char* name, double wall_ms,
                         const std::vector<Client>& clients) {
    int64_t h = 0, m = 0, co = 0;
    for (const Client& c : clients) {
      h += c.hits;
      m += c.misses;
      co += c.coalesced;
    }
    std::printf("%-10s %10.2f %10lld %10lld %10lld\n", name, wall_ms,
                static_cast<long long>(h), static_cast<long long>(m),
                static_cast<long long>(co));
  };
  print_config("private", wall_private, priv);
  print_config("shared", wall_shared, shared);
  std::printf("\nmedians of %d repeats; shared-config speedup over private: "
              "%.1fx; cache: %llu entries, %llu bytes, %lld inserts, %lld "
              "evictions, %lld coalesced\n",
              kRepeats, speedup, static_cast<unsigned long long>(cs.entries),
              static_cast<unsigned long long>(cs.bytes),
              static_cast<long long>(cs.inserts),
              static_cast<long long>(cs.evictions),
              static_cast<long long>(cs.coalesced_decodes));

  bool checks_ok = true;
  for (int r = 0; r < kRepeats; ++r) {
    if (!CheckRepeat(r, privs[r], shareds[r], oracle)) checks_ok = false;
  }
  if (wall_shared * 2 > wall_private) {
    std::printf("CHECK FAILED: median shared %.2fms vs private %.2fms "
                "(< 2x aggregate throughput)\n", wall_shared, wall_private);
    checks_ok = false;
  }

  JsonWriter json("BENCH_concurrent.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.Field("clients", kClients);
  json.Field("snapshots_per_client", kSnapshotsPerClient);
  json.Field("archive_latency_us", kArchiveLatencyUs);
  json.Field("snapshot_cache_pages",
             static_cast<int64_t>(kSnapshotCachePages));
  WriteConfigJson(&json, "private", priv, wall_private);
  WriteConfigJson(&json, "shared", shared, wall_shared);
  json.BeginObject("shared_cache");
  json.Field("entries", static_cast<int64_t>(cs.entries));
  json.Field("bytes", static_cast<int64_t>(cs.bytes));
  json.Field("shared_hits", cs.shared_hits);
  json.Field("misses", cs.misses);
  json.Field("coalesced_decodes", cs.coalesced_decodes);
  json.Field("inserts", cs.inserts);
  json.Field("evictions", cs.evictions);
  json.Field("abandoned_decodes", cs.abandoned_decodes);
  json.EndObject();
  json.Field("shared_speedup_over_private", speedup, 2);
  json.Field("repeats", kRepeats);
  json.Field("checks_ok", checks_ok);
  // Which client decodes a shared page first, and who waits on it, is a
  // race; the private config's per-client caches are not shared.
  WriteRaceDependent(
      &json, {"shared.clients[].scan_cache_hits",
              "shared.clients[].scan_cache_misses",
              "shared.clients[].coalesced_decodes", "shared_cache.shared_hits",
              "shared_cache.misses", "shared_cache.coalesced_decodes"});
  json.EndObject();
  json.Close();

  std::printf("\nExpected: byte-identical result tables in every config; "
              "the shared config\ndecodes each unique page version once "
              "across all four runs, coalesces racing\ndecodes, and "
              "finishes >= 2x faster in aggregate than run-private "
              "caches.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
