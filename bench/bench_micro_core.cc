// Google-benchmark microbenchmarks for the core data structures: row
// codec, heap table, B+-tree, buffer pool, Maplog SPT construction. These
// are the unit costs the figure-level benchmarks compose. The last one
// times the fixed path of a request the daemon serves, at three history
// lengths.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "retro/snapshot_store.h"
#include "rql/rql.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/btree.h"
#include "sql/database.h"
#include "sql/heap_table.h"
#include "sql/value.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"

namespace rql {
namespace {

using sql::Row;
using sql::Value;

Row SampleRow() {
  return {Value::Integer(123456), Value::Integer(42),
          Value::Text("STANDARD POLISHED TIN"), Value::Real(1234.56),
          Value::Text("1995-03-15")};
}

void BM_EncodeRow(benchmark::State& state) {
  Row row = SampleRow();
  std::string out;
  for (auto _ : state) {
    out.clear();
    sql::EncodeRow(row, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EncodeRow);

void BM_DecodeRow(benchmark::State& state) {
  std::string encoded = sql::EncodeRow(SampleRow());
  for (auto _ : state) {
    auto row = sql::DecodeRow(encoded);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_DecodeRow);

void BM_HeapInsert(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::HeapTable::Create(store->get());
  sql::HeapTable table(store->get(), *root);
  std::string record = sql::EncodeRow(SampleRow());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Insert(record));
  }
}
BENCHMARK(BM_HeapInsert);

void BM_HeapScan(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::HeapTable::Create(store->get());
  sql::HeapTable table(store->get(), *root);
  std::string record = sql::EncodeRow(SampleRow());
  for (int i = 0; i < state.range(0); ++i) {
    (void)table.Insert(record);
  }
  for (auto _ : state) {
    int64_t rows = 0;
    for (auto it = sql::HeapTable::Scan(store->get(), *root); it.Valid();
         it.Next()) {
      ++rows;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapScan)->Arg(1000)->Arg(10000);

void BM_BtreeInsert(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::BTree::Create(store->get());
  sql::BTree tree(store->get(), *root);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Insert({Value::Integer(key++)}, 1));
  }
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeLookup(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto store = retro::SnapshotStore::Open(&env, "bench");
  auto root = sql::BTree::Create(store->get());
  sql::BTree tree(store->get(), *root);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    (void)tree.Insert({Value::Integer(i)}, static_cast<uint64_t>(i));
  }
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup({Value::Integer(key)}));
    key = (key + 7919) % n;
  }
}
BENCHMARK(BM_BtreeLookup)->Arg(10000);

void BM_BufferPoolHit(benchmark::State& state) {
  storage::BufferPool pool(1024);
  auto loader = [](uint64_t, storage::Page* page) {
    page->Zero();
    return Status::OK();
  };
  for (uint64_t k = 0; k < 512; ++k) (void)pool.Get(k, loader);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Get(key, loader));
    key = (key + 13) % 512;
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_SptBuild(benchmark::State& state) {
  // A history of `snapshots` epochs, each capturing `pages_per_epoch`
  // pages; SPT construction for the oldest snapshot scans all of it.
  storage::InMemoryEnv env;
  auto log = retro::Maplog::Open(&env, "maplog");
  const int snapshots = static_cast<int>(state.range(0));
  const int pages_per_epoch = 64;
  uint64_t offset = 0;
  for (int s = 1; s <= snapshots; ++s) {
    (void)(*log)->AppendSnapshotMark(static_cast<retro::SnapshotId>(s));
    for (int p = 0; p < pages_per_epoch; ++p) {
      (void)(*log)->AppendCapture(static_cast<storage::PageId>(p),
                                  static_cast<retro::SnapshotId>(s),
                                  static_cast<retro::SnapshotId>(s),
                                  offset += storage::kPageSize);
    }
  }
  for (auto _ : state) {
    retro::SnapshotPageTable spt;
    uint64_t resume = 0;
    retro::SptBuildStats stats;
    (void)(*log)->BuildSpt(1, &spt, &resume, &stats);
    benchmark::DoNotOptimize(spt);
  }
  state.SetItemsProcessed(state.iterations() * snapshots * pages_per_epoch);
}
BENCHMARK(BM_SptBuild)->Arg(16)->Arg(128);

/// A server (never started) over a history of a one-page table, one row
/// updated per declared snapshot, and one session of it.
struct ServedFixture {
  storage::InMemoryEnv env;
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<server::Session> session;
  std::string qs;
};

/// What a served kRqlRun does before and around its iterations: capture
/// the published SnapIds image, bring the session's mirror to it, and run
/// the mechanism, whose Qs is a 10-snapshot range over SnapIds.
Status ServeRequest(ServedFixture* f) {
  std::shared_ptr<const server::SnapIdsImage> image = f->server->snap_ids();
  RQL_RETURN_IF_ERROR(f->session->ReplaceSnapIds(*image));
  return f->session->engine()->AggregateDataInVariable(
      f->qs, "SELECT SUM(v) AS s FROM kv", "Out", "sum");
}

Result<std::unique_ptr<ServedFixture>> MakeServedFixture(int snapshots) {
  auto f = std::make_unique<ServedFixture>();
  RQL_ASSIGN_OR_RETURN(f->data, sql::Database::Open(&f->env, "data"));
  RQL_ASSIGN_OR_RETURN(f->meta, sql::Database::Open(&f->env, "meta"));
  RqlEngine owner(f->data.get(), f->meta.get());
  RQL_RETURN_IF_ERROR(owner.EnsureSnapIds());
  RQL_RETURN_IF_ERROR(
      f->data->Exec("CREATE TABLE kv (k INTEGER, v INTEGER)"));
  for (int k = 0; k < 64; ++k) {
    RQL_RETURN_IF_ERROR(
        f->data->AppendRow("kv", {Value::Integer(k), Value::Integer(0)})
            .status());
  }
  for (int s = 0; s < snapshots; ++s) {
    RQL_RETURN_IF_ERROR(
        f->data->Exec("BEGIN; UPDATE kv SET v = v + 1 WHERE k = " +
                      std::to_string(s % 64) + ";"));
    RQL_RETURN_IF_ERROR(owner.CommitWithSnapshot("").status());
  }
  server::ServerOptions options;
  options.socket_path = "bench_micro_core.sock";  // never bound
  RQL_ASSIGN_OR_RETURN(f->server, server::Server::Create(
                                      f->data.get(), f->meta.get(), options));
  RqlOptions engine;
  engine.profile = RqlProfile::kFast;
  engine.memo = f->server->memo();
  engine.shared_scan_cache = f->server->scan_cache();
  RQL_ASSIGN_OR_RETURN(
      f->session, server::Session::Create(1, f->data->store(), engine));
  f->qs = "SELECT snap_id FROM SnapIds WHERE snap_id > " +
          std::to_string(snapshots - 10) + " ORDER BY snap_id";
  // The first request mirrors SnapIds and folds; the second evaluates Qs
  // once more, since the fold wrote the metadata database, and keeps the
  // table. From then on every request is the fixed path.
  for (int i = 0; i < 2; ++i) RQL_RETURN_IF_ERROR(ServeRequest(f.get()));
  return f;
}

/// One served request's fixed path at range(0) declared snapshots: an
/// image capture, an unchanged-generation refresh and a kept run that
/// reuses its Qs list. `kept_share` is the share of timed requests that
/// took that path (1 when it holds).
void BM_ServedRequestFixedPath(benchmark::State& state) {
  static std::map<int, std::unique_ptr<ServedFixture>> fixtures;
  const int snapshots = static_cast<int>(state.range(0));
  std::unique_ptr<ServedFixture>& f = fixtures[snapshots];
  if (f == nullptr) {
    auto made = MakeServedFixture(snapshots);
    if (!made.ok()) {
      state.SkipWithError(made.status().ToString().c_str());
      return;
    }
    f = std::move(*made);
  }
  int64_t kept = 0;
  for (auto _ : state) {
    Status s = ServeRequest(f.get());
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    const RqlRunStats& stats = f->session->engine()->last_run_stats();
    if (stats.qs_reused && stats.result_reused) ++kept;
  }
  state.counters["kept_share"] =
      static_cast<double>(kept) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ServedRequestFixedPath)->Arg(200)->Arg(700)->Arg(3000);

}  // namespace
}  // namespace rql

BENCHMARK_MAIN();
