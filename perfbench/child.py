"""Workload process: set-up, a first pass, then warm or traced passes.

Started by ``run.py`` in a fresh interpreter, once per sample::

    python3 perfbench/child.py --spec SPEC --mode {run,trace}
        --src SRC --out DIR --seconds S [--details] [--spans FILE]

Every process times set-up (``import nads`` plus loading every input
scenario) and one first pass over the workload's commands. ``run`` then
repeats untraced warm passes for ``--seconds``; ``trace`` runs half of
``--seconds`` untraced and half with the span tracer installed and reports
per-layer metrics. Each pass calls ``nads.cli.main(argv)`` in-process with
stdout captured. With ``--details`` the first-pass outputs are written for
checking, with the run details. A summary goes to ``DIR/summary.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import probe

#: A traced run times at least this many passes on each side.
MIN_TRACE_PASSES = 2


def run_pass(main, commands):
    """Run every command once; return (seconds, outputs, [(rc, error)])."""
    outputs = []
    ops = []
    start = time.perf_counter()
    for argv in commands:
        buf = io.StringIO()
        error = None
        rc = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(list(argv))
        except Exception:
            error = traceback.format_exc(limit=4)
        outputs.append(buf.getvalue())
        ops.append((rc, error))
    return time.perf_counter() - start, outputs, ops


def pass_record(outputs, ops) -> list:
    from check import digest

    record = []
    for text, (rc, error) in zip(outputs, ops):
        if error is not None:
            print(error, file=sys.stderr)
        record.append([rc, digest(text), error is not None])
    return record


class Loop:
    """Timed passes, each followed by a speed probe."""

    def __init__(self, probes: list[float]):
        self.probes = probes
        self.times: list[float] = []
        self.records: list = []

    def run(self, main, commands, seconds, min_passes=1, after_pass=None):
        start = time.perf_counter()
        count = 0
        while count < min_passes or time.perf_counter() - start < seconds:
            self.timed_pass(main, commands)
            count += 1
            if after_pass is not None:
                after_pass()

    def timed_pass(self, main, commands) -> list[str]:
        took, outputs, ops = run_pass(main, commands)
        self.probes.append(probe())
        self.times.append(took)
        self.records.append(pass_record(outputs, ops))
        return outputs


def metadata(nads, scenarios, evolve_log) -> dict:
    import numpy
    import scipy

    worker_count = getattr(nads.cli, "_worker_count", None)
    return {
        "BACKEND": getattr(nads, "BACKEND", None),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "grid_points": {s.name: len(s.grid()) for s in scenarios},
        "sweep_workers": worker_count() if callable(worker_count) else None,
        "evolve_points_n_sub": evolve_log,
    }


def traced_loop(nads, commands, traced: Loop, seconds, spans_path):
    """Traced passes; returns (layer metrics, evolve log, trace info)."""
    import numpy as np
    from tracer import Tracer, discover, import_layers, layer_metrics

    modules, missing_layers = import_layers()
    targets, missing = discover(modules)
    tracer = Tracer()
    traces = []

    def after_pass():
        traces.append(tracer.drain())

    tracer.install(targets)
    try:
        traced.run(nads.cli.main, commands, seconds, MIN_TRACE_PASSES, after_pass)
    finally:
        tracer.uninstall()
    per_pass = [layer_metrics(t) for t in traces]
    metrics = {
        key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]
    }
    np.savez(
        spans_path,
        names=np.array(traces[0].names),
        **{
            f"pass{i}_{field}": getattr(t, field)
            for i, t in enumerate(traces)
            for field in ("thread", "name_id", "start", "end", "parent")
        },
    )
    info = {
        "missing": missing_layers + missing,
        "observer_errors": tracer.observer_errors,
        "spans_per_pass": [len(t.start) for t in traces],
    }
    return metrics, traces[0].evolve_log, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--details", action="store_true",
                        help="write first-pass outputs and run details")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    commands = spec["commands"]
    out = Path(args.out)

    probes = [probe()]
    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import nads
    import nads.cli

    scenarios = [nads.load_scenario(path) for path in spec["files"]]
    setup_s = time.perf_counter() - start
    probes.append(probe())

    warm = Loop(probes)
    outputs = warm.timed_pass(nads.cli.main, commands)
    summary = {"setup_s": setup_s, "first_pass_s": warm.times[0]}
    if args.details:
        for i, text in enumerate(outputs):
            (out / f"out-{i}.txt").write_text(text, encoding="utf-8")
    evolve_log = []
    if args.mode == "run":
        warm.run(nads.cli.main, commands, args.seconds)
        summary["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    else:
        warm.run(nads.cli.main, commands, args.seconds / 2, MIN_TRACE_PASSES)
        traced = Loop(probes)
        metrics, evolve_log, info = traced_loop(
            nads, commands, traced, args.seconds / 2, args.spans or out / "spans.npz"
        )
        summary["wall_traced"] = traced.times
        summary["layers"] = metrics
        summary["trace"] = info
        warm.records += traced.records
    # The first pass is cold; warm samples start with the second.
    summary["wall"] = warm.times[1:]
    summary["passes"] = warm.records
    summary["probes"] = probes
    if args.details:
        summary["meta"] = metadata(nads, scenarios, evolve_log)
    (out / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
