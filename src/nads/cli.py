"""Command-line driver: scenario files in, deterministic tables out.

Subcommands: ``snapshot`` (dressed-state quantities per grid point),
``evolve`` (integrated amplitudes, optionally compared against the
closed-form ratio), ``sweep`` (1- or 2-axis parameter scans with a scalar
reduction per point) and ``validate`` (the named invariant suite).

Exit codes: 0 success, 1 configuration failure (usage, parse, validation,
a grid or sweep too large to allocate), 2 numerical failure (branch
ambiguity, step underflow and kin).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError, ValidationError
from .field_model import _require_choice
from .nads_core import snapshot_batch, snapshot_series
from .overlap_transitions import amplitude_ratios, eg_overlap, mixing_probability, norms
from .scenario import Scenario, load_scenario, parse_axis, with_axis_values
from .tables import scenario_header, table_json, write_table, write_text
from .tdse import evolve, final_states
from .validation import run_all

__all__ = ["main"]


#: Grid points of the snapshot series a ``maxP`` sweep holds at once.
_SERIES_POINTS = 4096

#: Sweep points built and reduced at once.
_SWEEP_POINTS = 1024


def _each(results: list, value) -> list:
    """``value`` of each result that is not a NumericalError."""
    return [r if isinstance(r, NumericalError) else value(r) for r in results]


def _reduce_max_p(points: list[Scenario]) -> list:
    grid = points[0].grid()
    size = max(1, _SERIES_POINTS // len(grid))
    out = []
    for first in range(0, len(points), size):
        batch = snapshot_batch([(p.system, p.field) for p in points[first:first + size]], grid)
        out += _each(batch, lambda s: float(np.max(mixing_probability(s.sin_half, s.cos_half))))
    return out


def _reduce_final(value):
    """The reducer taking ``value`` of each point's last trajectory; the
    points share a grid, an integrator and an initial state, and run as
    one batch."""
    def reduce(points: list[Scenario]) -> list:
        first = points[0]
        return _each(final_states([(p.system, p.field) for p in points], first.grid(),
                                  first.initial_state, rtol=first.integrator.rtol,
                                  atol=first.integrator.atol), value)
    return reduce


#: The scalar of each sweep point, for points that share a grid, an
#: integrator and an initial state: a float, or the NumericalError of the
#: point.
REDUCERS = {
    "maxP": _reduce_max_p,
    "finalPe": _reduce_final(lambda traj: float(abs(traj.c_e[-1]) ** 2)),
    "finalPg": _reduce_final(lambda traj: float(abs(traj.c_g[-1]) ** 2)),
    "finalNorm": _reduce_final(lambda traj: float(traj.norm[-1])),
}


def _emit(args, title: str, resolved: dict, columns: dict) -> None:
    """Write the table ``columns`` (name to column, in order) as CSV, or
    as JSON under ``--json``."""
    if args.json:
        write_text(table_json(title, resolved, columns), args.out)
    else:
        write_table(scenario_header(title, resolved), columns, args.out)


def cmd_snapshot(args) -> int:
    scenario = load_scenario(args.file)
    series = snapshot_series(scenario.system, scenario.field, scenario.grid())
    gg, ee = norms(series)
    eg = eg_overlap(series)
    columns = {
        "t": series.grid,
        "omega": series.omega,
        "delta": np.full(len(series), series.delta),
        "Re_delta_tilde": series.delta_tilde.real,
        "Im_delta_tilde": series.delta_tilde.imag,
        "Re_omega_tilde": series.omega_tilde.real,
        "Im_omega_tilde": series.omega_tilde.imag,
        "Re_cos_half": series.cos_half.real,
        "Im_cos_half": series.cos_half.imag,
        "Re_sin_half": series.sin_half.real,
        "Im_sin_half": series.sin_half.imag,
        "Re_omega_G": series.omega_G.real,
        "Im_omega_G": series.omega_G.imag,
        "Re_omega_E": series.omega_E.real,
        "Im_omega_E": series.omega_E.imag,
        "gg": gg,
        "ee": ee,
        "Re_eg": eg.real,
        "Im_eg": eg.imag,
        "P": mixing_probability(series.sin_half, series.cos_half),
    }
    _emit(args, "snapshot table", scenario.resolved(), columns)
    return 0


def cmd_evolve(args) -> int:
    scenario = load_scenario(args.file)
    integrator = scenario.integrator
    traj = evolve(scenario.system, scenario.field, scenario.grid(), scenario.initial_state,
                  rtol=integrator.rtol, atol=integrator.atol)
    columns = {
        "t": traj.grid,
        "Re_c_g": traj.c_g.real,
        "Im_c_g": traj.c_g.imag,
        "Re_c_e": traj.c_e.real,
        "Im_c_e": traj.c_e.imag,
        "norm": traj.norm,
    }
    if args.compare:
        # ratio is |c_e/c_g| for a ground start, |c_g/c_e| for an excited
        # start, from the trajectory and from the closed-form solution.
        if scenario.initial_state == "ground":
            num, den = traj.c_e, traj.c_g
        else:
            num, den = traj.c_g, traj.c_e
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_traj = np.abs(num) / np.abs(den)
        ratio_traj[~np.isfinite(ratio_traj)] = np.nan
        columns["ratio_tdse"] = ratio_traj
        # The series is a temporary: it is released before the table is
        # formatted, where evolve's memory peaks.
        columns["ratio_model"] = np.abs(amplitude_ratios(
            snapshot_series(scenario.system, scenario.field, traj.grid),
            scenario.initial_state,
        ))
    _emit(args, "evolve table", scenario.resolved(), columns)
    return 0


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.file)
    _require_choice("--reduce", args.reduce, sorted(REDUCERS))
    if not 1 <= len(args.axis) <= 2:
        raise ValidationError("sweep requires 1 or 2 axes")
    resolved = scenario.resolved()
    paths, values = zip(*(parse_axis(text, resolved) for text in args.axis))
    if len(set(paths)) < len(paths):
        raise ValidationError(f"sweep axes must differ, got {paths[0]} twice")
    # Full-length axis columns in axis-major order, allocated at once, so an
    # impossible point count fails before any point runs.
    axes = [grid.ravel() for grid in np.meshgrid(*values, indexing="ij")]
    results = []
    for first in range(0, len(axes[0]), _SWEEP_POINTS):
        chunk = [axis[first:first + _SWEEP_POINTS] for axis in axes]
        results += _sweep_points(scenario, paths, chunk, args.reduce)
    # The axis paths are dotted, so neither the reducer nor "error" is one.
    columns = dict(zip(paths, axes))
    columns[args.reduce] = [value for value, _ in results]
    columns["error"] = [err for _, err in results]
    _emit(args, "sweep table", resolved, columns)
    return 0


def _sweep_points(scenario: Scenario, paths, columns, reduce: str) -> list:
    """(value, error cell) of each sweep point, in order. The points that
    build share a batch per grid, integrator and initial state; a point
    that fails, to build or numerically, takes NaN and its own error cell."""
    results: list = [None] * len(columns[0])
    batches: dict[tuple, list[int]] = {}
    points = []
    for index in range(len(results)):
        try:
            point = with_axis_values(scenario, [(path, column[index])
                                                for path, column in zip(paths, columns)])
        except (ConfigError, MemoryError) as exc:
            results[index] = exc
            point = None
        else:
            key = (point.grid, point.integrator, point.initial_state)
            batches.setdefault(key, []).append(index)
        points.append(point)
    for members in batches.values():
        for index, value in zip(members, REDUCERS[reduce]([points[i] for i in members])):
            results[index] = value
    return [(float("nan"), f"{type(r).__name__}: {_message(r)}") if isinstance(r, Exception)
            else (r, "") for r in results]


def _message(exc: Exception) -> str:
    """The text of an error; an allocation that failed says so."""
    if isinstance(exc, MemoryError):
        return f"out of memory: {exc}" if str(exc) else "out of memory"
    return str(exc)


def cmd_validate(args) -> int:
    results = run_all()
    if args.json:
        text = json.dumps(
            [r.as_dict() for r in results], indent=2, sort_keys=True
        ) + "\n"
    else:
        text = "".join(r.line() + "\n" for r in results)
    write_text(text, None)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never
    changes it, and building it costs more than a small command."""
    parser = argparse.ArgumentParser(
        prog="nads",
        description="Dressed-state quantities, overlaps and amplitude "
        "evolution for a driven damped two-level system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_snap = sub.add_parser("snapshot", help="dressed-state table per grid point")
    p_snap.add_argument("file", help="scenario file (JSON)")
    p_snap.add_argument("--out", default=None, help="output path (default stdout)")
    p_snap.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_snap.set_defaults(func=cmd_snapshot)

    p_evolve = sub.add_parser("evolve", help="integrate the amplitude equations")
    p_evolve.add_argument("file", help="scenario file (JSON)")
    p_evolve.add_argument(
        "--compare",
        action="store_true",
        help="add closed-form vs integrated amplitude-ratio columns",
    )
    p_evolve.add_argument("--out", default=None, help="output path (default stdout)")
    p_evolve.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_evolve.set_defaults(func=cmd_evolve)

    p_sweep = sub.add_parser("sweep", help="scan 1-2 parameters, one scalar per point")
    p_sweep.add_argument("file", help="base scenario file (JSON)")
    p_sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="PATH:MIN:MAX:COUNT[:log]",
        help="swept parameter (repeat for a second axis)",
    )
    p_sweep.add_argument(
        "--reduce",
        required=True,
        help=f"scalar per sweep point, one of {sorted(REDUCERS)}",
    )
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--json", action="store_true", help="machine-readable report")
    p_val.set_defaults(func=cmd_validate)

    return parser


# glibc's mallopt parameters (malloc.h), and the mmap threshold _keep_heap
# sets: allocations up to 32 MiB come from the heap, where their memory
# stays for the next one once freed, while a larger one still gets its own
# mapping and goes back to the system when freed, so an oversized grid does
# not stay resident. 32 MiB is the value glibc's own sliding threshold
# grows to on a 64-bit host (DEFAULT_MMAP_THRESHOLD_MAX in malloc.c); it is
# a choice, not the most mallopt takes (glibc 2.36 takes larger values).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


@functools.cache
def _keep_heap() -> None:
    """Keep freed memory in the process heap, once per process.

    glibc returns every freed array of 128 KiB or more to the system and
    trims the top of the heap, so the next such array faults its pages in
    again. Serving arrays up to 32 MiB from the heap and never trimming it
    lets the points of a sweep, the checks of ``validate`` and a second
    ``main`` call in one process reuse the memory freed before them; a
    one-shot command on one scenario frees too few such arrays to gain
    measurably. Only the command line sets this: ``import nads`` leaves a
    library caller's allocator policy alone. Off Linux, or where the C
    library has no ``mallopt``, nothing changes. The return values are not
    checked: a setting the C library does not take stays at its default.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


def main(argv: Optional[list[str]] = None) -> int:
    _keep_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are configuration
        # failures here (exit 1), while --help stays 0.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # An oversized grid or sweep count fails at allocation; the request
        # is what is wrong, so it is a configuration failure.
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout stopped early (``nads snapshot ... | head``):
        # end quietly with status 0, as when the whole table went out in
        # one write, with stdout on devnull so that the interpreter's last
        # flush does not fail again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 0


if __name__ == "__main__":
    sys.exit(main())
