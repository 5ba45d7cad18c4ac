"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are result files written by ``run.py`` or directories of
them (``.perfbench_results/``). Results are grouped by workload and trace
mode; for every metric the script prints each side's median and quartiles
and the change of the medians. It refuses (exit 2) to compare result sets
whose ``BACKEND`` differs, since the two propagation kernels differ ~14x in
speed, and warns when core count or library versions differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

#: Run details that must match for numbers to be comparable.
MUST_MATCH = ("BACKEND",)
SHOULD_MATCH = ("nproc", "affinity_cpus", "python", "numpy", "scipy")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for file in files:
        data = json.loads(file.read_text())
        if "details" in data and "result" in data:
            out.append(data)
    return out


def values(results: list[dict], key: str) -> set:
    return {json.dumps(r["details"].get(key)) for r in results}


def summary(samples: list[float]) -> str:
    median = statistics.median(samples)
    if len(samples) < 2:
        return f"{median:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] (n={len(samples)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    if not before or not after:
        print("compare: no result sets found", file=sys.stderr)
        return 2
    for key in MUST_MATCH:
        seen = values(before, key) | values(after, key)
        if len(seen) > 1:
            print(f"compare: refusing, {key} differs: {sorted(seen)}", file=sys.stderr)
            return 2
    for key in SHOULD_MATCH:
        seen = values(before, key) | values(after, key)
        if len(seen) > 1:
            print(f"warning: {key} differs: {sorted(seen)}", file=sys.stderr)

    groups: dict = defaultdict(lambda: ([], []))
    for side, results in enumerate((before, after)):
        for r in results:
            details = r["details"]
            groups[(details["workload"], details["trace"])][side].append(r["result"])
    for (workload, trace), (a, b) in sorted(groups.items()):
        if not a or not b:
            continue
        print(f"== {workload} (trace {trace}): {len(a)} before, {len(b)} after")
        for name in a[0]["metrics"]:
            xs = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            ys = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not xs or not ys:
                continue
            base = statistics.median(xs)
            change = (statistics.median(ys) - base) / base if base else float("nan")
            print(f"  {name:44s} {summary(xs):40s} -> {summary(ys):40s} {change:+.1%}")
        failed = sum(r["failed"] for r in a), sum(r["failed"] for r in b)
        print(f"  failed operations: {failed[0]} -> {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
