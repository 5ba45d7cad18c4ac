"""Benchmark of the ``nads`` command line, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {snapshot,evolve,sweep,validate}
        [--seed N] [--seconds S] [--trace 0|1]

The program under test is ``src/nads`` of that checkout, driven in-process
through ``nads.cli.main(argv)``; it receives only the scenario files and argv
that ``workloads.py`` generates from the seed.

With ``--trace 0`` the run starts ``PROCESSES`` fresh interpreters one after
another. Each times set-up (``import nads`` and loading the workload's
scenario files) and a first pass over the workload's commands, then repeats
warm passes for its share of ``--seconds``. Spreading the warm passes over
every process samples the whole run rather than one stretch of it, which
matters on a shared host whose speed drifts for seconds at a time. It
reports the end-to-end metrics:

* ``setup_s``      median set-up time over the fresh interpreters;
* ``first_pass_s`` median time of the first pass after set-up;
* ``wall_s``       median warm pass time (sample count in the run details);
* ``rows_per_s``   output rows per second of ``wall_s``: grid rows for
                   snapshot/evolve, sweep points for sweep, checks for validate;
* ``peak_rss_mb``  median peak resident memory of the workload processes.

Every time is reported at reference host speed: multiplied by the factor
``calibrate.speed_factor`` derives from the probes each process runs between
passes (see ``calibrate.py``). Raw medians are in the run details.

With ``--trace 1`` one interpreter runs half of ``--seconds`` untraced and
half under the span tracer of ``tracer.py`` and reports the per-layer
metrics, ``trace_overhead_s`` (traced minus untraced median pass time) and
``error_rate``. Its spans go to ``.perfbench_results/spans-<workload>.npz``.

Every operation (one command in one pass) counts as attempted. It fails if
it raises, exits non-zero, writes output that fails ``check.py`` or writes
bytes that differ from its own first pass. The last line of stdout is the
result as JSON; the line before it holds the run details (backend, core
count, versions, grid points, sweep workers; a traced run adds the accepted
``n_sub`` of every evolve call). Each
result set is also saved under ``.perfbench_results/`` for ``compare.py``.
The first run in a checkout builds the package's optional extension in
place, as an install would.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from calibrate import speed_factor

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Fresh interpreters per untraced run.
PROCESSES = 6

DEFAULT_SECONDS = 16.0

#: Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0

END_TO_END = ("setup_s", "first_pass_s", "wall_s", "rows_per_s", "peak_rss_mb")



class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def build(results: Path, deadline: float) -> None:
    """Build the package's optional extension in place, once per checkout.

    The package falls back to its pure-Python kernel when the extension does
    not build, so a failed build is recorded, not fatal; ``BACKEND`` in the
    run details shows which kernel ran.
    """
    log = results / "build.log"
    if log.exists() or not (ROOT / "setup.py").is_file():
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    log.write_text(f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")


def run_child(mode: str, spec: Path, work: Path, seconds: float, deadline: float,
              details: bool = False, spans: Path = None) -> dict:
    out = work / f"{mode}-{time.monotonic_ns()}"
    out.mkdir()
    env = dict(os.environ)
    env.pop("NADS_WORKERS", None)  # the sweep uses its default worker count
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--spec", str(spec),
         "--mode", mode, "--src", str(ROOT / "src"), "--out", str(out),
         "--seconds", repr(seconds)]
        + (["--details"] if details else [])
        + (["--spans", str(spans)] if spans else []),
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=remaining,
    )
    summary = out / "summary.json"
    if proc.returncode != 0 or not summary.is_file():
        raise BenchError(f"{mode} workload process exited {proc.returncode}")
    data = json.loads(summary.read_text())
    data["dir"] = str(out)
    return data


def verdicts(wl: workloads.Workload, out_dir: Path) -> tuple[list[list[str]], int]:
    """Problems in each command's first-pass output, and the output rows."""
    reference = check.Reference.load(wl.name)
    problems = []
    rows = 0
    for i, (argv, expect) in enumerate(zip(wl.commands, wl.expect)):
        text = (out_dir / f"out-{i}.txt").read_text(encoding="utf-8")
        found = check.check_output(argv, text, expect, check.command_key(argv), reference)
        problems.append(found)
        if argv[0] == "validate":
            rows += len(json.loads(text)) if not found else 0
        elif not found:
            rows += len(check.Table(text))
    return problems, rows


def tally(summaries: list[dict], problems: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) over every operation of every pass."""
    first = summaries[-1]["passes"][0]
    attempted = failed = 0
    for summary in summaries:
        for record in summary["passes"]:
            for i, (rc, digest, raised) in enumerate(record):
                attempted += 1
                if raised or rc != 0 or problems[i] or digest != first[i][1]:
                    failed += 1
    return attempted, failed


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_rate")):
        return "ratio"
    return "count"


def scaled(name: str, value: float, factor: float) -> float:
    """A layer metric at reference speed: times scale by ``factor``, rates inversely."""
    if name.endswith("_per_s"):
        return value / factor
    if name.endswith("_s"):
        return value * factor
    return value


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": unit(name)}


def run(args) -> dict:
    if not (ROOT / "src" / "nads" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'nads'} is missing")
    deadline = time.monotonic() + RUN_BUDGET_S
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        build(results, deadline)
        wl = workloads.generate(args.workload, args.seed, work / "inputs")
        spec = work / "spec.json"
        spec.write_text(json.dumps(wl.spec()))
        if args.trace:
            spans = results / f"spans-{args.workload}.npz"
            summaries = [
                run_child("trace", spec, work, args.seconds, deadline, True, spans)
            ]
        else:
            share = args.seconds / PROCESSES
            summaries = [
                run_child("run", spec, work, share, deadline, i == PROCESSES - 1)
                for i in range(PROCESSES)
            ]
        main = summaries[-1]
        problems, rows = verdicts(wl, Path(main["dir"]))
        for argv, found in zip(wl.commands, problems):
            for problem in found:
                print(f"check failed: {' '.join(argv)}: {problem}", file=sys.stderr)
        attempted, failed = tally(summaries, problems)
        factor = speed_factor([p for s in summaries for p in s["probes"]])
        wall = [t * factor for s in summaries for t in s["wall"]]
        setup = [s["setup_s"] * factor for s in summaries]
        first = [s["first_pass_s"] * factor for s in summaries]
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **main["meta"],
            "speed_factor": factor,
            "raw_median_s": {
                "setup": statistics.median(s["setup_s"] for s in summaries),
                "first_pass": statistics.median(s["first_pass_s"] for s in summaries),
                "wall": statistics.median(t for s in summaries for t in s["wall"]),
            },
            "wall_samples": len(wall),
            "wall_quartiles_s": quartiles(wall),
            "setup_samples_s": setup,
            "first_pass_samples_s": first,
            "rows_per_pass": rows,
        }
        if args.trace:
            traced = [t * factor for t in main["wall_traced"]]
            overhead = statistics.median(traced) - statistics.median(wall)
            metrics = {
                name: metric(name, scaled(name, value, factor))
                for name, value in main["layers"].items()
            }
            metrics["trace_overhead_s"] = metric("trace_overhead_s", overhead)
            metrics["error_rate"] = metric("error_rate", failed / attempted)
            details["traced_samples"] = len(traced)
            details["trace_info"] = main["trace"]
        else:
            wall_s = statistics.median(wall)
            values = {
                "setup_s": statistics.median(setup),
                "first_pass_s": statistics.median(first),
                "wall_s": wall_s,
                "rows_per_s": rows / wall_s,
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in summaries),
            }
            metrics = {name: metric(name, values[name]) for name in END_TO_END}
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        saved = results / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        )
        saved.write_text(json.dumps({"details": details, "result": result}, indent=1))
        return {"details": details, "result": result}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the nads command line.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running workload process is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": out["details"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
