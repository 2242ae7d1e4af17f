#!/usr/bin/env python3
"""Schema check for rql_report --json output (stdlib only).

Usage: check_report_json.py REPORT.json

Validates the structure CI depends on: the four mechanisms each run as a
cold (memo-publishing) and a warm (memo-replaying) pass, each with a
per-iteration phase breakdown, a metrics delta, and a well-formed bounded
trace, plus the memo-table totals. Exits non-zero with a path-qualified
message on the first violation.
"""

import json
import sys

EVENT_TYPES = {
    "run_begin", "run_end", "iteration_begin", "iteration_end",
    "spt_build", "archive_fetch", "scan_cache", "iteration_skip",
    "worker_stall", "memo_hit",
}

PASSES = {"cold", "warm"}

MECHANISMS = {
    "CollateData", "AggregateDataInVariable", "AggregateDataInTable",
    "CollateDataIntoIntervals",
}

ITERATION_FIELDS = {
    "index": int, "snapshot": int, "worker": int, "skipped": bool,
    "memo_hit": bool, "read_set_pages": int,
    "spt_build_us": int, "query_eval_us": int,
    "index_create_us": int, "udf_us": int, "total_us": int, "qq_rows": int,
    "maplog_pages": int, "spt_delta_entries": int, "pagelog_pages": int,
    "cache_hits": int, "db_pages": int, "delta_pages": int,
}


class SchemaError(Exception):
    pass


def require(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def check_typed_fields(obj, fields, path):
    require(isinstance(obj, dict), path, "expected object")
    for name, typ in fields.items():
        require(name in obj, path, f"missing field '{name}'")
        # bool is an int subclass in Python; keep the check strict.
        ok = isinstance(obj[name], typ) and (
            typ is bool or not isinstance(obj[name], bool))
        require(ok, f"{path}.{name}", f"expected {typ.__name__}")


def check_metrics(metrics, path):
    require(isinstance(metrics, dict), path, "expected object")
    for section in ("counters", "gauges", "histograms"):
        require(section in metrics, path, f"missing '{section}'")
        require(isinstance(metrics[section], dict), f"{path}.{section}",
                "expected object")
    for name, v in metrics["counters"].items():
        require(isinstance(v, int), f"{path}.counters.{name}",
                "expected integer")
    for name, v in metrics["gauges"].items():
        require(isinstance(v, int), f"{path}.gauges.{name}",
                "expected integer")
    for name, h in metrics["histograms"].items():
        hpath = f"{path}.histograms.{name}"
        check_typed_fields(h, {"count": int, "sum_us": int}, hpath)
        require(isinstance(h.get("buckets"), list), hpath,
                "missing bucket list")
        require(all(isinstance(b, int) for b in h["buckets"]), hpath,
                "non-integer bucket")


def check_trace(trace, path):
    check_typed_fields(trace, {"capacity": int, "emitted": int,
                               "dropped": int}, path)
    require(isinstance(trace.get("events"), list), path,
            "missing event list")
    retained = trace["emitted"] - trace["dropped"]
    require(len(trace["events"]) == retained, path,
            f"{len(trace['events'])} events != emitted-dropped {retained}")
    require(len(trace["events"]) <= trace["capacity"], path,
            "more events than capacity (trace not bounded)")
    last_t = None
    for i, ev in enumerate(trace["events"]):
        epath = f"{path}.events[{i}]"
        check_typed_fields(ev, {"t_us": int, "snapshot": int, "worker": int},
                           epath)
        require(ev.get("type") in EVENT_TYPES, epath,
                f"unknown event type {ev.get('type')!r}")
        require(isinstance(ev.get("args"), list) and len(ev["args"]) == 6 and
                all(isinstance(a, int) for a in ev["args"]), epath,
                "args must be 6 integers")
        if last_t is not None:
            require(ev["t_us"] >= last_t, epath,
                    "event timestamps not monotonic")
        last_t = ev["t_us"]


def check_run(run, path):
    require(run.get("mechanism") in MECHANISMS, path,
            f"unknown mechanism {run.get('mechanism')!r}")
    require(run.get("pass") in PASSES, path,
            f"unknown memo pass {run.get('pass')!r}")
    require(isinstance(run.get("table"), str) and run["table"], path,
            "missing result table name")
    require(isinstance(run.get("iterations"), list) and run["iterations"],
            path, "missing per-iteration breakdown")
    for i, it in enumerate(run["iterations"]):
        ipath = f"{path}.iterations[{i}]"
        check_typed_fields(it, ITERATION_FIELDS, ipath)
        phases = (it["spt_build_us"] + it["query_eval_us"] +
                  it["index_create_us"] + it["udf_us"])
        require(it["total_us"] == phases, ipath,
                "total_us != sum of phase times")
    check_metrics(run.get("metrics"), f"{path}.metrics")
    check_trace(run.get("trace"), f"{path}.trace")
    # Cross-check: the trace's run_end iteration count matches both the
    # rendered table and the published rql.iterations counter.
    run_ends = [e for e in run["trace"]["events"] if e["type"] == "run_end"]
    if run_ends:
        require(run_ends[-1]["args"][0] == len(run["iterations"]), path,
                "run_end iteration count != breakdown rows")
    counters = run["metrics"]["counters"]
    require(counters.get("rql.iterations") == len(run["iterations"]), path,
            "rql.iterations != breakdown rows")
    require(counters.get("rql.runs") == 1, path, "rql.runs != 1 in delta")
    # Memo cross-checks: counter deltas agree with the per-iteration rows,
    # and the cold/warm contract holds — a cold pass over a fresh memo hits
    # nothing; a warm pass replays at least one iteration from the memo.
    memo_rows = sum(1 for it in run["iterations"] if it["memo_hit"])
    require(counters.get("rql.memo_hits", 0) == memo_rows, path,
            "rql.memo_hits != memo_hit rows")
    if run["pass"] == "cold":
        require(memo_rows == 0, path, "cold pass served memo hits")
        require(counters.get("rql.memo_misses", 0) > 0, path,
                "cold pass published no memo entries")
        # Every executed iteration reports its own SPT work, parallel
        # workers' included, so a cold pass cannot read zero.
        spt_work = sum(it["maplog_pages"] + it["spt_delta_entries"]
                       for it in run["iterations"])
        require(spt_work > 0, path,
                "cold pass reports no Maplog pages or SPT delta entries")
    else:
        require(memo_rows > 0, path, "warm pass replayed nothing")


def check_report(doc):
    check_typed_fields(doc, {"snapshots": int, "workers": int,
                             "trace_capacity": int}, "$")
    require(isinstance(doc.get("runs"), list), "$", "missing runs array")
    seen = set()
    for i, run in enumerate(doc["runs"]):
        check_run(run, f"$.runs[{i}]")
        seen.add((run["mechanism"], run["pass"]))
    want = {(m, p) for m in MECHANISMS for p in PASSES}
    require(seen == want, "$.runs",
            f"mechanism passes missing: {sorted(want - seen)}")
    check_typed_fields(doc.get("memo"), {"entries": int, "bytes": int,
                                         "evictions": int},
                       "$.memo")
    require(doc["memo"]["entries"] > 0, "$.memo",
            "memo table empty after the cold passes")
    check_typed_fields(doc.get("shared_cache"),
                       {"entries": int, "bytes": int, "shared_hits": int,
                        "misses": int, "coalesced_decodes": int,
                        "inserts": int, "evictions": int,
                        "abandoned_decodes": int,
                        "truncate_invalidations": int},
                       "$.shared_cache")
    cache = doc["shared_cache"]
    require(cache["misses"] > 0, "$.shared_cache",
            "no cold decodes — the cache was never exercised")
    require(cache["shared_hits"] > 0, "$.shared_cache",
            "no cross-run hits — eight passes over one store must share")
    require(cache["inserts"] <= cache["misses"], "$.shared_cache",
            "more publishes than claimed decodes")
    require(cache["entries"] <= cache["inserts"], "$.shared_cache",
            "more resident entries than publishes")
    check_metrics(doc.get("final"), "$.final")
    require("rql.pagelog.diff_depth" in doc["final"]["histograms"],
            "$.final.histograms", "missing rql.pagelog.diff_depth")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_report_json: cannot load {sys.argv[1]}: {e}",
              file=sys.stderr)
        return 1
    try:
        check_report(doc)
    except SchemaError as e:
        print(f"check_report_json: {e}", file=sys.stderr)
        return 1
    print(f"check_report_json: {sys.argv[1]} ok "
          f"({len(doc['runs'])} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
