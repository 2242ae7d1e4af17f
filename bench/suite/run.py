#!/usr/bin/env python3
"""Builds rqlbench from this checkout's sources and runs one workload.

Run from the repository root:

  python3 bench/suite/run.py --workload sweep_old --seed 1 --seconds 20 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) and runs with that directory as its working directory, so
its Unix socket and trace files stay inside the checkout.

--trace 0 runs the workload once and reports every end_to_end metric of
BENCHMARK.json. --trace 1 runs it twice, each for half of --seconds:
untraced, for the reference throughput behind trace_overhead_pct, then
traced, writing
trace_<workload>.json (Chrome trace events; Perfetto opens it) and
layers_<workload>.json to --trace-dir (default <build dir>/trace). It then
reports every per_layer metric.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is rqlbench's own result line
("rqlbench-result {...}"), which keeps sample counts and the
workload-specific metrics; compare.py reads those lines. The exit code is
non-zero when the build fails, a run crashes or times out, or any output
differs from its oracle.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
RESULT_PREFIX = "rqlbench-result "
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170  # every rqlbench process of one invocation, together


def fail(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory.
    with open(build_dir / "rqlbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(SUITE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "rqlbench", "-j", jobs])
        for step in steps:
            try:
                subprocess.run(step, stdout=sys.stderr, check=True,
                               timeout=BUILD_TIMEOUT_S)
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired, OSError) as e:
                fail(f"build failed: {e}")
    return build_dir / "rqlbench"


def run_rqlbench(binary, build_dir, args, seconds, extra, deadline):
    """Runs rqlbench once, echoing its output; returns (result, exit code)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=build_dir, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"rqlbench did not finish within {RUN_BUDGET_S} s")
    result = None
    for line in proc.stdout.splitlines():
        print(line)
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
    if result is None:
        fail(f"rqlbench exited with {proc.returncode} and no result")
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace:
        trace_dir = (args.trace_dir or build_dir / "trace").resolve()
        trace_dir.mkdir(parents=True, exist_ok=True)
        # Each half of --seconds goes to one run, so a traced invocation
        # takes about as long as an untraced one.
        half = args.seconds / 2
        ref, ref_rc = run_rqlbench(binary, build_dir, args, half,
                                   ["--setups", "1"], deadline)
        rps = ref["metrics"]["throughput_rps"]["value"]
        result, rc = run_rqlbench(
            binary, build_dir, args, half,
            ["--setups", "1", "--trace-dir", str(trace_dir),
             "--untraced-rps", repr(rps)], deadline)
        runs = [(ref, ref_rc), (result, rc)]
        declared = spec["per_layer"]
    else:
        result, rc = run_rqlbench(binary, build_dir, args, args.seconds, [],
                                  deadline)
        runs = [(result, rc)]
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"rqlbench did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = all(r["correct"] and code == 0 for r, code in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
