"""Correctness of the workload outputs.

Every command's output is checked two ways:

* against the reference outputs in ``reference/``, made from the seed code
  by ``make_reference.py``, whenever the command and its input files are the
  ones the reference was made from (snapshot, evolve and validate on every
  seed; sweep on the default seed). Closed-form columns get a tight relative
  tolerance. Integrated columns get a tolerance scaled by the scenario's own
  ``rtol``/``atol``, so a legitimate controller or propagator change still
  passes. Sweep error cells must match by exception type. Validate must
  report the same checks, in the same order, all PASS;
* against invariants that need no stored table, on every seed: finite
  cells, 0 <= P <= 1, COS^2 + SIN^2 = 1 and square-root branch continuity
  from the Re/Im columns, norm and ratio columns consistent with the
  amplitudes, and sweep axes and error cells as generated.

Byte-identical repeat passes are checked by the runner, from digests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import math
from pathlib import Path
from typing import Any, Optional

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Closed-form columns: |x - r| <= REL_CF |r| + ABS_CF * column scale.
REL_CF = 1e-9
ABS_CF = 1e-12

#: Integrated columns: |x - r| <= K_INT (rtol max(1, |r|) + atol). The seed
#: code's accepted trajectories sit within 0.1 of (rtol, atol) of a 4x finer
#: run on every benchmark scenario, so K_INT leaves room for any integrator
#: that honours the same tolerance.
K_INT = 100.0

INTEGRATED = frozenset({
    "Re_c_g", "Im_c_g", "Re_c_e", "Im_c_e", "norm",
    "finalPe", "finalPg", "finalNorm",
})

#: Checked by consistency with the amplitude columns, not by reference.
DERIVED = frozenset({"ratio_tdse"})

SNAPSHOT_COLUMNS = (
    "t", "omega", "delta",
    "Re_delta_tilde", "Im_delta_tilde",
    "Re_omega_tilde", "Im_omega_tilde",
    "Re_cos_half", "Im_cos_half",
    "Re_sin_half", "Im_sin_half",
    "Re_omega_G", "Im_omega_G",
    "Re_omega_E", "Im_omega_E",
    "gg", "ee", "Re_eg", "Im_eg", "P",
)
EVOLVE_COLUMNS = (
    "t", "Re_c_g", "Im_c_g", "Re_c_e", "Im_c_e", "norm",
    "ratio_tdse", "ratio_model",
)

#: Reference rows kept per table: every STRIDE-th row plus EDGE rows at
#: each end. Invariants and repeat digests cover every row.
STRIDE = {"snapshot": 4, "evolve": 4, "sweep": 1}
EDGE = 3


def command_key(argv: list[str]) -> str:
    """Identity of a command: argv with each input file replaced by its
    content digest, so the key does not depend on where the inputs live."""
    parts = []
    for token in argv:
        path = Path(token)
        if path.suffix == ".json" and path.is_file():
            parts.append("@" + hashlib.sha256(path.read_bytes()).hexdigest()[:20])
        else:
            parts.append(token)
    return "\x1f".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def header_scenario(header: list[str]) -> dict:
    """The resolved scenario a table's header block embeds, or {}."""
    for line in header:
        if line.startswith("# scenario: "):
            return json.loads(line[len("# scenario: "):])
    return {}


class Table:
    """A parsed CSV table with its '#' header block."""

    def __init__(self, text: str):
        lines = text.split("\n")
        self.header = []
        while lines and lines[0].startswith("#"):
            self.header.append(lines.pop(0))
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        if not rows:
            raise ValueError("table has no column names")
        self.names = rows[0]
        body = rows[1:]
        if any(len(row) != len(self.names) for row in body):
            raise ValueError("ragged table rows")
        self.cells = body
        self.scenario = header_scenario(self.header)

    def __len__(self) -> int:
        return len(self.cells)

    def column(self, name: str) -> np.ndarray:
        i = self.names.index(name)
        return np.array([float(row[i]) for row in self.cells])

    def text_column(self, name: str) -> list[str]:
        i = self.names.index(name)
        return [row[i] for row in self.cells]

    def numeric_names(self) -> list[str]:
        return [n for n in self.names if n != "error"]

    def matrix(self) -> np.ndarray:
        cols = [self.column(n) for n in self.numeric_names()]
        return np.column_stack(cols) if cols else np.empty((len(self), 0))

    def tolerances(self) -> tuple[float, float]:
        integ = self.scenario.get("integrator", {})
        return float(integ.get("rtol", 1e-10)), float(integ.get("atol", 1e-12))


def sample_rows(n: int, stride: int) -> np.ndarray:
    rows = set(range(0, n, stride))
    rows.update(range(min(EDGE, n)))
    rows.update(range(max(0, n - EDGE), n))
    return np.array(sorted(rows), dtype=np.int64)


def error_type(cell: str) -> str:
    return cell.split(":", 1)[0] if cell else ""


# -- reference ---------------------------------------------------------------


class Reference:
    """Stored outputs of one workload, keyed by ``command_key``."""

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray]):
        self.meta = meta
        self.arrays = arrays

    @classmethod
    def load(cls, workload: str, directory: Path = REFERENCE_DIR) -> "Reference":
        meta_path = directory / f"{workload}.json"
        if not meta_path.is_file():
            return cls({"commands": {}}, {})
        meta = json.loads(meta_path.read_text())
        arrays: dict[str, np.ndarray] = {}
        blob = directory / f"{workload}.npz.xz"
        if blob.is_file():
            with np.load(io.BytesIO(lzma.decompress(blob.read_bytes()))) as npz:
                arrays = {name: npz[name] for name in npz.files}
        return cls(meta, arrays)

    def entry(self, key: str) -> Optional[dict]:
        return self.meta["commands"].get(key)

    @staticmethod
    def record(command: str, text: str) -> tuple[dict, Optional[np.ndarray]]:
        """Reference entry and sampled value array for one output."""
        if command == "validate":
            return {"kind": "validate",
                    "names": [c["name"] for c in json.loads(text)]}, None
        table = Table(text)
        rows = sample_rows(len(table), STRIDE[command])
        entry = {
            "kind": "table",
            "header": table.header,
            "names": table.names,
            "nrows": len(table),
            "stride": STRIDE[command],
        }
        if "error" in table.names:
            entry["errors"] = [error_type(c) for c in table.text_column("error")]
        return entry, table.matrix()[rows]


def _subset_equal(ref: Any, got: Any) -> bool:
    """Every key of ``ref`` is in ``got`` with an equal value (recursively)."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in got and _subset_equal(v, got[k]) for k, v in ref.items()
        )
    return ref == got


def compare_table(table: Table, entry: dict, values: np.ndarray) -> list[str]:
    problems = []
    if table.names != entry["names"]:
        return [f"columns {table.names} differ from reference {entry['names']}"]
    if len(table) != entry["nrows"]:
        return [f"{len(table)} rows, reference has {entry['nrows']}"]
    if table.header[:1] != entry["header"][:1]:
        problems.append(f"title {table.header[:1]} differs from reference")
    if not _subset_equal(header_scenario(entry["header"]), table.scenario):
        problems.append("resolved scenario in the header differs from reference")
    rows = sample_rows(entry["nrows"], entry["stride"])
    got = table.matrix()[rows]
    rtol, atol = table.tolerances()
    for j, name in enumerate(table.numeric_names()):
        if name in DERIVED:
            continue
        g, r = got[:, j], values[:, j]
        if not np.array_equal(np.isnan(g), np.isnan(r)):
            problems.append(f"{name}: NaN cells differ from reference")
            continue
        ok = ~np.isnan(r)
        if name in INTEGRATED:
            tol = K_INT * (rtol * np.maximum(1.0, np.abs(r[ok])) + atol)
        else:
            scale = float(np.max(np.abs(r[ok]))) if ok.any() else 0.0
            tol = REL_CF * np.abs(r[ok]) + ABS_CF * scale
        bad = np.abs(g[ok] - r[ok]) > tol
        if bad.any():
            k = int(rows[ok][np.argmax(bad)])
            problems.append(
                f"{name}: {int(bad.sum())} sampled cells outside tolerance, "
                f"first at row {k}"
            )
    if "errors" in entry:
        got_types = [error_type(c) for c in table.text_column("error")]
        if got_types != entry["errors"]:
            problems.append("sweep error cells differ from reference by type")
    return problems


# -- invariants ----------------------------------------------------------------


def _complex(table: Table, stem: str) -> np.ndarray:
    return table.column(f"Re_{stem}") + 1j * table.column(f"Im_{stem}")


def _branch_continuous(z: np.ndarray) -> bool:
    if len(z) < 2:
        return True
    return bool(np.all(np.abs(np.diff(z)) < np.abs(z[1:] + z[:-1])))


def _grid_rows(scenario: dict) -> Optional[int]:
    grid = scenario.get("grid", {})
    try:
        return int(round((grid["t_end"] - grid["t_start"]) / grid["step"])) + 1
    except (KeyError, TypeError, ZeroDivisionError):
        return None


def snapshot_invariants(table: Table) -> list[str]:
    problems = []
    if tuple(table.names) != SNAPSHOT_COLUMNS:
        return [f"snapshot columns {table.names}"]
    if len(table) != _grid_rows(table.scenario):
        problems.append(f"{len(table)} rows for a {_grid_rows(table.scenario)}-point grid")
    if not np.all(np.isfinite(table.matrix())):
        problems.append("non-finite cell")
    p = table.column("P")
    if np.any(p < 0.0) or np.any(p > 1.0):
        problems.append("P outside [0, 1]")
    cos_half = _complex(table, "cos_half")
    sin_half = _complex(table, "sin_half")
    if np.max(np.abs(cos_half**2 + sin_half**2 - 1.0), initial=0.0) > 1e-9:
        problems.append("COS^2 + SIN^2 != 1")
    for stem in ("omega_tilde", "cos_half", "sin_half"):
        if not _branch_continuous(_complex(table, stem)):
            problems.append(f"{stem} jumps square-root branch")
    if np.any(np.diff(table.column("t")) <= 0):
        problems.append("t not increasing")
    return problems


def evolve_invariants(table: Table) -> list[str]:
    problems = []
    if tuple(table.names) != EVOLVE_COLUMNS:
        return [f"evolve columns {table.names}"]
    if len(table) != _grid_rows(table.scenario):
        problems.append(f"{len(table)} rows for a {_grid_rows(table.scenario)}-point grid")
    c_g = _complex(table, "c_g")
    c_e = _complex(table, "c_e")
    norm = table.column("norm")
    if not (np.all(np.isfinite(c_g)) and np.all(np.isfinite(c_e))
            and np.all(np.isfinite(norm))):
        problems.append("non-finite amplitude or norm")
    if np.max(np.abs(norm - (np.abs(c_g) ** 2 + np.abs(c_e) ** 2)), initial=0.0) > 1e-12:
        problems.append("norm != |c_g|^2 + |c_e|^2")
    rtol, _ = table.tolerances()
    if np.any(norm > 1.0 + K_INT * rtol):
        problems.append("norm grows above 1")
    if table.scenario.get("initial_state", "ground") == "ground":
        num, den = np.abs(c_e), np.abs(c_g)
    else:
        num, den = np.abs(c_g), np.abs(c_e)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = num / den
    ratio = table.column("ratio_tdse")
    finite = np.isfinite(expected)
    if not np.array_equal(np.isfinite(ratio), finite) or np.any(
        np.abs(ratio[finite] - expected[finite]) > 1e-12 * np.abs(expected[finite])
    ):
        problems.append("ratio_tdse inconsistent with the amplitude columns")
    model = table.column("ratio_model")
    if np.any(model[np.isfinite(model)] < 0) or np.any(np.isinf(model)):
        problems.append("ratio_model negative or infinite")
    return problems


def sweep_invariants(table: Table, expect: dict) -> list[str]:
    problems = []
    axes = expect.get("axes", [])
    if len(table.names) != len(axes) + 2 or table.names[-1] != "error":
        return [f"sweep columns {table.names}"]
    grids = [np.linspace(a, b, n) for a, b, n in axes]
    combos = np.array(np.meshgrid(*grids, indexing="ij")).reshape(len(axes), -1).T
    if len(table) != len(combos):
        return [f"{len(table)} sweep rows, expected {len(combos)}"]
    for j, name in enumerate(table.names[:len(axes)]):
        if not np.array_equal(table.column(name), combos[:, j]):
            problems.append(f"axis column {name} differs from the requested values")
    value = table.column(table.names[len(axes)])
    errors = table.text_column("error")
    failing = set(expect.get("failing_rows", []))
    for k, (v, err) in enumerate(zip(value, errors)):
        if k in failing:
            if error_type(err) != expect.get("fail_type") or not math.isnan(v):
                problems.append(f"row {k} should fail with {expect.get('fail_type')}")
                break
        elif err or not math.isfinite(v):
            problems.append(f"row {k} failed: {err or v}")
            break
    ok = np.isfinite(value)
    reduce = table.names[len(axes)]
    if reduce in ("maxP", "finalPe", "finalPg") and (
        np.any(value[ok] < 0.0) or np.any(value[ok] > 1.0 + 1e-6)
    ):
        problems.append(f"{reduce} outside [0, 1]")
    return problems


def validate_checks(text: str) -> list[str]:
    results = json.loads(text)
    if not results:
        return ["validate reported no checks"]
    return [f"check {r['name']} did not pass" for r in results if not r["passed"]]


# -- entry point -----------------------------------------------------------------


def check_output(
    argv: list[str],
    text: str,
    expect: dict,
    key: str,
    reference: Reference,
) -> list[str]:
    """Problems found in one command's output; empty when it is correct."""
    command = argv[0]
    entry = reference.entry(key)
    try:
        if command == "validate":
            problems = validate_checks(text)
            if entry is not None:
                names = [r["name"] for r in json.loads(text)]
                if names != entry["names"]:
                    problems.append("validate check names or order differ from reference")
            return problems
        table = Table(text)
        if command == "snapshot":
            problems = snapshot_invariants(table)
        elif command == "evolve":
            problems = evolve_invariants(table)
        else:
            problems = sweep_invariants(table, expect)
        if entry is not None:
            problems += compare_table(table, entry, reference.arrays[entry["array"]])
        return problems
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
