"""Tests of the benchmark itself: tracer arithmetic, the correctness gate,
the kernel stage-point count and the generated inputs.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import (  # noqa: E402
    Tracer,
    discover,
    import_layers,
    layer_metrics,
)


def _cli_output(argv: list[str]) -> str:
    import nads.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert nads.cli.main(list(argv)) == 0
    return buf.getvalue()


def _set_cell(text: str, row: int, column: str, scale: float) -> str:
    lines = text.split("\n")
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    j = lines[start].split(",").index(column)
    cells = lines[start + 1 + row].split(",")
    cells[j] = "%.17g" % (float(cells[j]) * scale)
    lines[start + 1 + row] = ",".join(cells)
    return "\n".join(lines)


def test_self_time_adds_up_on_a_toy_call_tree():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "tables.leaf")
    inner = tracer.wrap(lambda: leaf(), "nads_core.inner")
    first = tracer.wrap(lambda: None, "cli.first")

    def root_body():
        first()
        inner()

    tracer.wrap(root_body, "cli.root")()
    trace = tracer.drain()

    by_name = trace.by_name()
    assert by_name == {
        "tables.leaf": (1, 1.0),
        "nads_core.inner": (1, 4.0),
        "cli.first": (1, 2.0),
        "cli.root": (1, 3.0),
    }
    assert trace.self_times().sum() == pytest.approx(10.0)
    metrics = layer_metrics(trace)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["nads_core.self_s"] == pytest.approx(4.0)
    assert metrics["tables.self_s"] == pytest.approx(1.0)
    assert metrics["cli.calls"] == 2


def test_spans_nest_per_thread():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "tables.leaf")
    node = tracer.wrap(lambda: leaf(), "nads_core.node")
    worker = threading.Thread(target=node)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    node()
    trace = tracer.drain()
    assert sorted(trace.parent.tolist()) == [-1, -1, 0, 2]
    assert (trace.self_times() >= 0).all()
    assert tracer.drain().start.size == 0


def _snapshot_command(tmp_path: Path, name: str) -> tuple[workloads.Workload, int]:
    wl = workloads.generate("snapshot", workloads.DEFAULT_SEED, tmp_path)
    index = next(i for i, argv in enumerate(wl.commands) if Path(argv[1]).stem == name)
    return wl, index


def _error_rate(wl, index, text, reference) -> float:
    argv = wl.commands[index]
    problems = [[] for _ in wl.commands]
    problems[index] = check.check_output(
        argv, text, wl.expect[index], check.command_key(argv), reference
    )
    record = [[0, "same", False] for _ in wl.commands]
    attempted, failed = run.tally([{"passes": [record, record]}], problems)
    return failed / attempted


def test_perturbed_output_cell_raises_error_rate(tmp_path):
    wl, index = _snapshot_command(tmp_path, "constant-damped")
    reference = check.Reference.load("snapshot")
    text = _cli_output(wl.commands[index])
    assert _error_rate(wl, index, text, reference) == 0.0

    # A reference row, in a column no invariant covers.
    bumped = _set_cell(text, 8, "Re_omega_G", 1.0 + 1e-7)
    assert _error_rate(wl, index, bumped, reference) > 0.0

    # A row the reference does not keep: the COS^2 + SIN^2 = 1 invariant.
    bumped = _set_cell(text, 9, "Re_cos_half", 1.0 + 1e-7)
    assert check.sample_rows(401, check.STRIDE["snapshot"]).tolist().count(9) == 0
    assert _error_rate(wl, index, bumped, reference) > 0.0

    # A flipped root in such a row: the branch-continuity invariant.
    flipped = _set_cell(_set_cell(text, 9, "Re_sin_half", -1.0), 9, "Im_sin_half", -1.0)
    assert _error_rate(wl, index, flipped, reference) > 0.0


def test_differing_repeat_pass_counts_as_failed():
    problems = [[]]
    summaries = [{"passes": [[[0, "a", False]], [[0, "b", False]], [[0, "a", False]]]}]
    assert run.tally(summaries, problems) == (3, 1)


def test_kernel_stage_points_match_the_lattice_formula():
    modules, missing_layers = import_layers()
    assert missing_layers == []
    targets, missing = discover(modules)
    assert missing == []
    import nads.cli

    original = nads.cli.evolve
    tracer = Tracer()
    tracer.install(targets)
    try:
        _cli_output(["evolve", str(BENCH_DIR / "scenarios" / "constant-rabi-resonant.json")])
    finally:
        tracer.uninstall()
    trace = tracer.drain()
    metrics = layer_metrics(trace)

    (n, accepted), = trace.evolve_log
    passes = int(metrics["tdse.passes"])
    n_subs = [accepted >> (passes - 1 - j) for j in range(passes)]
    assert n_subs[0] << (passes - 1) == accepted
    expected = sum(2 * (n - 1) * n_sub + 1 for n_sub in n_subs)
    assert metrics["kernels.stage_points"] == expected
    assert metrics["tdse.stage_points"] == expected
    assert metrics["tdse.n_sub_max"] == accepted
    assert metrics["tdse.useful_ratio"] == pytest.approx(
        (2 * (n - 1) * accepted + 1) / expected
    )
    assert nads.cli.evolve is original


def test_same_seed_same_inputs(tmp_path):
    a = workloads.generate("sweep", 7, tmp_path / "a")
    b = workloads.generate("sweep", 7, tmp_path / "b")
    c = workloads.generate("sweep", 8, tmp_path / "c")
    strip = lambda wl, root: json.dumps(wl.spec()).replace(str(root), "")  # noqa: E731
    assert strip(a, tmp_path / "a") == strip(b, tmp_path / "b")
    assert strip(a, tmp_path / "a") != strip(c, tmp_path / "c")
    assert (tmp_path / "a" / "sweep-base.json").read_bytes() == (
        tmp_path / "b" / "sweep-base.json").read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snapshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _result_file(path: Path, backend: str, wall: float) -> Path:
    path.write_text(json.dumps({
        "details": {"workload": "snapshot", "trace": 0, "BACKEND": backend},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {"wall_s": {"value": wall, "unit": "s"}}},
    }))
    return path


def test_compare_refuses_result_sets_from_different_backends(tmp_path, capsys):
    import compare

    before = _result_file(tmp_path / "a.json", "python", 1.0)
    same = _result_file(tmp_path / "b.json", "python", 0.5)
    other = _result_file(tmp_path / "c.json", "compiled", 0.1)
    assert compare.main([str(before), str(same)]) == 0
    assert "-50.0%" in capsys.readouterr().out
    assert compare.main([str(before), str(other)]) == 2
    assert "BACKEND differs" in capsys.readouterr().err
