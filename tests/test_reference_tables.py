"""`nads snapshot` and `nads evolve --compare` against the seed code's tables.

``perfbench/reference/`` holds what the seed code wrote for both commands on
every shipped scenario (every 4th row plus the edge rows), keyed by the
command and the digest of the scenario file. ``perfbench/check.py`` compares
a table with it: closed-form columns within 1e-9 relative, integrated
columns within 100 times the scenario's own tolerance, same column names,
row count, title and resolved scenario. These tables are the oracle of the
whole-series array route: branch tracking, the Lambda' derivative shift,
overlaps, P and the amplitude ratios.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from nads.cli import main
from nads.scenario import list_shipped, shipped_path

CHECK_PY = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"


def _load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_check()


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
