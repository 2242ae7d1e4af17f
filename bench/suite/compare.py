#!/usr/bin/env python3
"""Compares two sets of rqlbench runs, metric by metric and workload by
workload (standard library only).

  python3 bench/suite/compare.py BASE HEAD
  python3 bench/suite/compare.py --write-baseline OUT.json RUNS

BASE, HEAD and RUNS are each a directory of run outputs (any file holding
the "rqlbench-result {...}" lines run.py prints, e.g. its saved stdout) or
a baseline file written by --write-baseline.

Checks first that every run reports each metric BENCHMARK.json declares
for it (end_to_end when untraced, per_layer when traced) exactly once,
with the declared unit and a sample count. Then, per workload and
end-to-end metric, it prints both sides' median and quartiles and one
verdict:

  regressed   the head median is worse than the base median by more than
              the metric's bound;
  improved    the head wins at least 9 of 10 seed-paired runs and the
              medians differ by more than the base's quartile distance;
  unresolved  either side's quartile distance, relative to its median, is
              wider than the bound;
  unchanged   otherwise.

Metrics the untraced runs report beyond the declared ones (throughput, the
median latency, ingest_mixed's reads and writes) are printed as
"reported", unjudged.

Exits 1 on any regression or a rise in the failed/attempted ratio, 2 when
the runs do not match BENCHMARK.json, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

PREFIX = "rqlbench-result "
DEFAULT_SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def unique_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"metric {key} reported twice")
        out[key] = value
    return out


def load_runs(path):
    path = Path(path)
    if path.is_file() and path.suffix == ".json":
        return json.loads(path.read_text())["runs"]
    runs = []
    for f in sorted(path.iterdir()) if path.is_dir() else [path]:
        if not f.is_file():
            continue
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith(PREFIX):
                runs.append(json.loads(line[len(PREFIX):],
                                       object_pairs_hook=unique_keys))
    return runs


def schema_errors(runs, spec):
    errors = []
    for r in runs:
        declared = spec["per_layer"] if r["traced"] else spec["end_to_end"]
        where = f"{r['workload']} seed {r['seed']}"
        for m in declared:
            got = r["metrics"].get(m["name"])
            if got is None:
                errors.append(f"{where}: {m['name']} missing")
            elif got.get("unit") != m["unit"]:
                errors.append(f"{where}: {m['name']} in {got.get('unit')}, "
                              f"declared {m['unit']}")
            elif "n" not in got:
                errors.append(f"{where}: {m['name']} has no sample count")
    return errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    """base/head: one value per run, in seed order, so zip pairs them."""
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    sign = 1 if better == "lower" else -1
    if bmed and sign * (hmed - bmed) / abs(bmed) > bound:
        return "regressed"
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(hmed - bmed) > bq3 - bq1:
        return "improved"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0,
                 (hq3 - hq1) / abs(hmed) if hmed else 0)
    return "unresolved" if spread > bound else "unchanged"


def by_workload(runs):
    out = {}
    for r in sorted(runs, key=lambda r: r["seed"]):
        if not r["traced"]:
            out.setdefault(r["workload"], []).append(r)
    return out


def failed_ratio(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def summarize(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base_runs, head_runs, spec):
    declared = {m["name"]: m for m in spec["end_to_end"]}
    base, head = by_workload(base_runs), by_workload(head_runs)
    bad = False
    print(f"{'workload':16} {'metric':22} {'unit':5} "
          f"{'base median [q1, q3]':>34} {'head median [q1, q3]':>34} "
          f"{'change':>8}  verdict")
    for workload in sorted(set(base) | set(head)):
        b_runs, h_runs = base.get(workload, []), head.get(workload, [])
        if not b_runs or not h_runs:
            print(f"{workload:16} runs on one side only")
            continue
        names = list(declared)
        for r in b_runs + h_runs:
            names += [n for n in r["metrics"] if n not in names]
        for name in names:
            bv = [r["metrics"][name]["value"]
                  for r in b_runs if name in r["metrics"]]
            hv = [r["metrics"][name]["value"]
                  for r in h_runs if name in r["metrics"]]
            if not bv or not hv:
                continue
            rule = declared.get(name)
            v = (verdict(bv, hv, rule["better"], rule["bound"])
                 if rule else "reported")
            bad |= v == "regressed"
            bmed, hmed = statistics.median(bv), statistics.median(hv)
            change = f"{(hmed - bmed) / bmed * 100:+.1f}%" if bmed else "n/a"
            unit = next(r["metrics"][name]["unit"] for r in b_runs
                        if name in r["metrics"])
            print(f"{workload:16} {name:22} {unit:5} {summarize(bv):>34} "
                  f"{summarize(hv):>34} {change:>8}  {v}")
        bf = failed_ratio(b_runs)
        hf = failed_ratio(h_runs)
        if hf > bf:
            print(f"{workload:16} failed_ratio rose: {bf:.4g} -> {hf:.4g}")
            bad = True
    return bad


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def write_baseline(out, runs):
    workloads = {}
    for workload, rs in by_workload(runs).items():
        metrics = {}
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"unit": rs[0]["metrics"][name]["unit"],
                             "median": med, "q1": q1, "q3": q3,
                             "values": values}
        workloads[workload] = {"runs": len(rs),
                               "seeds": [r["seed"] for r in rs],
                               "failed_ratio": failed_ratio(rs),
                               "metrics": metrics}
    first = runs[0]
    doc = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "sf": first["sf"], "snapshots": first["snapshots"],
        "run_seconds": first["seconds"],
        "workloads": workloads,
        "runs": runs,
    }
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sides", nargs="+", metavar="RUNS")
    parser.add_argument("--write-baseline", metavar="OUT")
    parser.add_argument("--benchmark", default=DEFAULT_SPEC, type=Path)
    args = parser.parse_args()
    if len(args.sides) != (1 if args.write_baseline else 2):
        parser.error("give BASE HEAD, or --write-baseline OUT RUNS")
    spec = json.loads(args.benchmark.read_text())
    sides = []
    for side in args.sides:
        try:
            runs = load_runs(side)
        except ValueError as e:
            print(f"{side}: {e}", file=sys.stderr)
            return 2
        errors = schema_errors(runs, spec) if runs else [f"{side}: no runs"]
        for e in errors:
            print(e, file=sys.stderr)
        if errors:
            return 2
        sides.append(runs)
    if args.write_baseline:
        write_baseline(args.write_baseline, sides[0])
        return 0
    return 1 if compare(sides[0], sides[1], spec) else 0


if __name__ == "__main__":
    sys.exit(main())
