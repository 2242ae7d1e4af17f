#!/usr/bin/env python3
"""Schema check for the rql server's kStats JSON document (stdlib only).

Usage: check_server_json.py STATS.json
       rql_shell --connect SOCKET --pull-stats | check_server_json.py -

Validates the wire-protocol stats document CI pulls from a live
rql_serverd: the six sections (server, engine, scheduler, scan_cache,
memo, store), their field types, and the internal invariants a healthy server
must satisfy. Exits non-zero with a path-qualified message on the first
violation.
"""

import json
import sys

SECTIONS = {
    "server": {
        "active_sessions": int,
        "sessions_opened": int,
        "max_sessions": int,
        "runs_completed": int,
    },
    "engine": {
        "profile": str,
    },
    "scheduler": {
        "queued": int,
        "active": int,
        "queue_limit": int,
        "worker_budget": int,
        "admission_rejects": int,
        "completed": int,
        "cancelled": int,
    },
    "scan_cache": {
        "shared_hits": int,
        "misses": int,
        "coalesced_decodes": int,
        "inserts": int,
        "entries": int,
        "bytes": int,
    },
    "memo": {
        "entries": int,
        "bytes": int,
        "max_bytes": int,
        "evictions": int,
        "hits": int,
        "misses": int,
        "result_reuses": int,
        "qs_reuses": int,
    },
    "store": {
        "earliest_snapshot": int,
        "latest_snapshot": int,
    },
}


PROFILES = {"paper_faithful", "fast"}


class SchemaError(Exception):
    pass


def require(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def check_stats(doc):
    require(isinstance(doc, dict), "$", "expected object")
    for section, fields in SECTIONS.items():
        require(section in doc, "$", f"missing section '{section}'")
        obj = doc[section]
        require(isinstance(obj, dict), f"$.{section}", "expected object")
        for name, typ in fields.items():
            require(name in obj, f"$.{section}", f"missing field '{name}'")
            # bool is an int subclass in Python; keep int fields strict.
            require(
                isinstance(obj[name], typ) and
                (typ is bool or not isinstance(obj[name], bool)),
                f"$.{section}.{name}", f"expected {typ.__name__}")

    server = doc["server"]
    require(0 <= server["active_sessions"] <= server["max_sessions"],
            "$.server", "active_sessions outside [0, max_sessions]")
    require(server["sessions_opened"] >= server["active_sessions"],
            "$.server", "fewer sessions opened than active")

    require(doc["engine"]["profile"] in PROFILES, "$.engine.profile",
            f"expected one of {sorted(PROFILES)}")

    sched = doc["scheduler"]
    require(sched["queued"] >= 0 and sched["active"] >= 0, "$.scheduler",
            "negative queue depth")
    require(sched["queued"] <= sched["queue_limit"], "$.scheduler",
            "queued beyond the admission limit")
    require(sched["cancelled"] <= sched["completed"], "$.scheduler",
            "more cancellations than completions")

    cache = doc["scan_cache"]
    require(cache["inserts"] <= cache["misses"], "$.scan_cache",
            "more publishes than claimed decodes")
    require(cache["entries"] <= cache["inserts"], "$.scan_cache",
            "more resident entries than publishes")
    require((cache["bytes"] > 0) == (cache["entries"] > 0), "$.scan_cache",
            "bytes/entries disagree about residency")

    memo = doc["memo"]
    require(memo["bytes"] <= memo["max_bytes"], "$.memo",
            "resident bytes beyond the LRU bound")
    require(memo["hits"] + memo["misses"] >= 0, "$.memo",
            "negative probe count")
    require(memo["result_reuses"] >= 0, "$.memo",
            "negative result-table reuse count")
    require(memo["qs_reuses"] >= 0, "$.memo",
            "negative Qs reuse count")

    store = doc["store"]
    require(store["earliest_snapshot"] <= store["latest_snapshot"] + 1,
            "$.store", "earliest snapshot beyond latest+1")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        if sys.argv[1] == "-":
            doc = json.load(sys.stdin)
        else:
            with open(sys.argv[1]) as f:
                doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_server_json: cannot load {sys.argv[1]}: {e}",
              file=sys.stderr)
        return 1
    try:
        check_stats(doc)
    except SchemaError as e:
        print(f"check_server_json: {e}", file=sys.stderr)
        return 1
    print(f"check_server_json: ok (sessions={doc['server']['active_sessions']}"
          f", runs_completed={doc['server']['runs_completed']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
