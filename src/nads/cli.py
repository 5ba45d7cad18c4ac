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
import warnings
from typing import Optional

import numpy as np

from .errors import ConfigError, NadsError, NumericalError, StepWarning, ValidationError
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


def _final_states(points: list[Scenario]) -> list:
    """Last states of sweep points that share a grid, an integrator and an
    initial state, as one batch."""
    first = points[0]
    return final_states([(p.system, p.field) for p in points], first.grid(),
                        first.initial_state, **vars(first.integrator))


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


def _reduce_final_pe(points: list[Scenario]) -> list:
    return _each(_final_states(points), lambda traj: float(abs(traj.c_e[-1]) ** 2))


def _reduce_final_pg(points: list[Scenario]) -> list:
    return _each(_final_states(points), lambda traj: float(abs(traj.c_g[-1]) ** 2))


def _reduce_final_norm(points: list[Scenario]) -> list:
    return _each(_final_states(points), lambda traj: float(traj.norm[-1]))


#: The scalar of each sweep point, for points that share a grid, an
#: integrator and an initial state: a float, or the NumericalError of the
#: point.
REDUCERS = {
    "maxP": _reduce_max_p,
    "finalPe": _reduce_final_pe,
    "finalPg": _reduce_final_pg,
    "finalNorm": _reduce_final_norm,
}


def _emit(args, title: str, resolved: dict, names, columns) -> None:
    if getattr(args, "json", False):
        write_text(table_json(title, resolved, names, columns), args.out)
    else:
        write_table(scenario_header(title, resolved), names, columns, args.out)


def cmd_snapshot(args) -> int:
    scenario = load_scenario(args.file)
    series = snapshot_series(scenario.system, scenario.field, scenario.grid())
    n = len(series)
    gg, ee = norms(series)
    eg = eg_overlap(series)
    p = mixing_probability(series.sin_half, series.cos_half)
    names = [
        "t", "omega", "delta",
        "Re_delta_tilde", "Im_delta_tilde",
        "Re_omega_tilde", "Im_omega_tilde",
        "Re_cos_half", "Im_cos_half",
        "Re_sin_half", "Im_sin_half",
        "Re_omega_G", "Im_omega_G",
        "Re_omega_E", "Im_omega_E",
        "gg", "ee", "Re_eg", "Im_eg", "P",
    ]
    columns = [
        series.grid, series.omega, np.full(n, series.delta),
        series.delta_tilde.real, series.delta_tilde.imag,
        series.omega_tilde.real, series.omega_tilde.imag,
        series.cos_half.real, series.cos_half.imag,
        series.sin_half.real, series.sin_half.imag,
        series.omega_G.real, series.omega_G.imag,
        series.omega_E.real, series.omega_E.imag,
        gg, ee, eg.real, eg.imag, p,
    ]
    _emit(args, "snapshot table", scenario.resolved(), names, columns)
    return 0


def cmd_evolve(args) -> int:
    scenario = load_scenario(args.file)
    traj = evolve(scenario.system, scenario.field, scenario.grid(),
                  scenario.initial_state, **vars(scenario.integrator))
    grid = traj.grid
    names = ["t", "Re_c_g", "Im_c_g", "Re_c_e", "Im_c_e", "norm"]
    columns = [
        grid,
        traj.c_g.real, traj.c_g.imag,
        traj.c_e.real, traj.c_e.imag,
        traj.norm,
    ]
    if args.compare:
        # ratio is |c_e/c_g| for a ground start, |c_g/c_e| for an excited
        # start, from the trajectory and from the closed-form solution.
        if scenario.initial_state == "ground":
            num, den = traj.c_e, traj.c_g
        else:
            num, den = traj.c_g, traj.c_e
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_traj = np.abs(num) / np.abs(den)
        ratio_traj = np.where(np.isfinite(ratio_traj), ratio_traj, np.nan)
        series = snapshot_series(scenario.system, scenario.field, grid)
        ratio_model = np.abs(amplitude_ratios(series, scenario.initial_state))
        names += ["ratio_tdse", "ratio_model"]
        columns += [ratio_traj, ratio_model]
    _emit(args, "evolve table", scenario.resolved(), names, columns)
    return 0


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.file)
    if args.reduce not in REDUCERS:
        raise ValidationError(
            f"--reduce must be one of {sorted(REDUCERS)}, got '{args.reduce}'"
        )
    if not 1 <= len(args.axis) <= 2:
        raise ValidationError("sweep requires 1 or 2 axes")
    resolved = scenario.resolved()
    paths, values = zip(*(parse_axis(text, resolved) for text in args.axis))
    if len(set(paths)) < len(paths):
        raise ValidationError(f"sweep axes must differ, got {paths[0]} twice")
    # Full-length axis columns in axis-major order, allocated at once, so an
    # impossible point count fails before any point runs.
    columns = [grid.ravel() for grid in np.meshgrid(*values, indexing="ij")]
    results = []
    for first in range(0, len(columns[0]), _SWEEP_POINTS):
        chunk = [column[first:first + _SWEEP_POINTS] for column in columns]
        results += _sweep_points(scenario, paths, chunk, args.reduce)

    names = [*paths, args.reduce, "error"]
    columns.append([value for value, _ in results])
    columns.append([err for _, err in results])
    _emit(args, "sweep table", resolved, names, columns)
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
        except ConfigError as exc:
            results[index] = exc
            point = None
        else:
            key = (point.grid, point.integrator, point.initial_state)
            batches.setdefault(key, []).append(index)
        points.append(point)
    for members in batches.values():
        for index, value in zip(members, REDUCERS[reduce]([points[i] for i in members])):
            results[index] = value
    return [
        (float("nan"), f"{type(r).__name__}: {r}") if isinstance(r, NadsError) else (r, "")
        for r in results
    ]


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


# glibc's mallopt parameters (malloc.h) and the largest mmap threshold a
# 64-bit glibc accepts.
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
    library has no ``mallopt``, nothing changes, and a value ``mallopt``
    refuses (it returns 0) stays at the library's default.
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


def _run(args) -> int:
    """Run the parsed command. A scenario's step warning is a CLI message,
    printed once however many sweep points repeat it; other warnings are
    shown as they were. Python's warning filters (``-W``) still decide
    whether a warning is shown at all."""
    seen = set()
    show = warnings.showwarning

    def show_step_warning(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, StepWarning):
            show(message, category, filename, lineno, file, line)
        elif str(message) not in seen:
            seen.add(str(message))
            print(f"warning: {args.file}: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_step_warning
        return args.func(args)


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
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # An oversized grid or sweep count fails at allocation; the request
        # is what is wrong, so it is a configuration failure.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
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
