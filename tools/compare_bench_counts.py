#!/usr/bin/env python3
"""Compares the counts in two sets of BENCH_*.json artifacts.

  python3 tools/compare_bench_counts.py BASE_DIR HEAD_DIR

For every BENCH_*.json present in both directories, compares each integer
and boolean field the two files share (floats are timings and are not
compared). A field either artifact lists in its "race_dependent" array
is skipped: its value depends on how concurrent runs or workers
interleave, so it changes from run to run of the same code. A path names a
field from the root ("shared_cache.misses"); "[]" stands for every
element of an array ("clients[].coalesced_decodes").

Prints every count that moved, as "file: path base -> head". Exits 1
when any moved, 0 otherwise.
"""

import json
import re
import sys
from pathlib import Path


def flatten(value, path, out):
    if isinstance(value, dict):
        for key, child in value.items():
            flatten(child, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            flatten(child, f"{path}[{i}]", out)
    elif isinstance(value, (bool, int)):
        out[path] = value


def counts(doc):
    flat = {}
    flatten(doc, "", flat)
    return {path: v for path, v in flat.items()
            if not path.startswith("race_dependent")}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, head_dir = Path(argv[1]), Path(argv[2])
    moved = 0
    for base_file in sorted(base_dir.glob("BENCH_*.json")):
        head_file = head_dir / base_file.name
        if not head_file.is_file():
            print(f"{base_file.name}: missing from {head_dir}")
            continue
        base_doc = json.loads(base_file.read_text())
        head_doc = json.loads(head_file.read_text())
        # Either side's list: a parent built before a field was listed
        # still varies in it.
        race = set(base_doc.get("race_dependent", []))
        race |= set(head_doc.get("race_dependent", []))
        base, head = counts(base_doc), counts(head_doc)
        for path in sorted(base.keys() & head.keys()):
            if re.sub(r"\[\d+\]", "[]", path) in race:
                continue
            if base[path] != head[path]:
                print(f"{base_file.name}: {path} {base[path]} -> "
                      f"{head[path]}")
                moved += 1
    print(f"{moved} count(s) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
