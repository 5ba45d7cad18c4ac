"""`nads snapshot`, `nads evolve --compare` and `nads sweep` against the seed
code's tables.

``perfbench/reference/`` holds what the seed code wrote for the first two
commands on every shipped scenario (every 4th row plus the edge rows) and
for the two sweeps of the benchmark's ``sweep`` workload (every row), keyed
by the command and the digest of the scenario file. ``perfbench/check.py``
compares a table with it: closed-form columns within 1e-9 relative,
integrated columns within 100 times the scenario's own tolerance, same
column names, row count, title and resolved scenario, and for sweeps the
type of every error cell. These tables are the oracle of the whole-series
array route: branch tracking, the Lambda' derivative shift, overlaps, P and
the amplitude ratios.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from nads.cli import main
from nads.scenario import list_shipped, shipped_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")


@pytest.fixture(scope="module")
def references():
    return {command: check.Reference.load(command) for command in ("snapshot", "evolve")}


@pytest.mark.parametrize("name", list_shipped())
@pytest.mark.parametrize(
    "command, flags", [("snapshot", []), ("evolve", ["--compare"])],
    ids=["snapshot", "evolve-compare"],
)
def test_matches_seed_reference(references, tmp_path, name, command, flags):
    argv = [command, str(shipped_path(name)), *flags]
    reference = references[command]
    entry = reference.entry(check.command_key(argv))
    assert entry is not None, f"no seed reference for {argv}"
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == 0
    table = check.Table(out.read_text(encoding="utf-8"))
    assert check.compare_table(table, entry, reference.arrays[entry["array"]]) == []


def test_sweeps_match_seed_reference(tmp_path):
    """The 2-axis maxP sweep (one row of points failing by name) and the
    finalPe sweep of the benchmark's default-seed sweep workload."""
    reference = check.Reference.load("sweep")
    wl = workloads.generate("sweep", workloads.DEFAULT_SEED, tmp_path)
    assert len(wl.commands) == 2
    for i, (argv, expect) in enumerate(zip(wl.commands, wl.expect)):
        entry = reference.entry(check.command_key(argv))
        assert entry is not None, f"no seed reference for {argv}"
        out = tmp_path / f"sweep{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        table = check.Table(out.read_text(encoding="utf-8"))
        assert check.sweep_invariants(table, expect) == []
        assert check.compare_table(table, entry, reference.arrays[entry["array"]]) == []
