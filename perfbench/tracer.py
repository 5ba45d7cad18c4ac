"""Span tracer for the ``nads`` layers, installed from outside the package.

The tracer replaces, for the duration of a traced run, every reference one
``nads`` module holds to a function defined in another ``nads`` module
(``cli.snapshot_series``, ``validation.evolve``, ``tdse.rk4_pair`` ...) with
a wrapper that records a span. A few same-module references are wrapped as
well, because they mark work the layer metrics need: the entry point
``cli.main`` (the root span of each command), ``tdse.propagate_fixed``
and ``tdse.evolve`` (passes and the controller), ``scenario.scenario_from_dict``
(parses), the ``validation.check_*`` functions (per-check time), the sweep
reducers in ``cli.REDUCERS``, the envelope and phase methods of
``field_model`` and ``SnapshotSeries.snapshot``.

A span is (name, start, end, parent) and is kept in memory, one buffer per
thread, so the sweep's worker threads nest their own calls correctly. A
span's self time is its duration minus the durations of its direct
children, which never overlap because calls within one thread nest.

Every name is looked up when the tracer is installed; a name a later
refactor removed is listed in ``missing`` and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

#: The modules of ``nads``, one layer each.
LAYERS = (
    "cli",
    "scenario",
    "field_model",
    "nads_core",
    "overlap_transitions",
    "tdse",
    "_kernels",
    "tables",
    "validation",
)

#: Functions of ``overlap_transitions`` that evaluate one grid point.
POINT_FUNCTIONS = frozenset({
    "overlap_gg", "overlap_gg_expanded", "overlap_ee", "overlap_ee_expanded",
    "overlap_eg", "overlap_eg_expanded", "overlap_ge", "overlaps",
    "transition_probability", "transition_probability_via_overlaps",
    "reconstruct_bare_amplitudes",
})

_METHODS = (
    ("field_model", "ConstantEnvelope", ("omega", "log_deriv", "dlog_deriv")),
    ("field_model", "GaussianEnvelope", ("omega", "log_deriv", "dlog_deriv")),
    ("field_model", "SechEnvelope", ("omega", "log_deriv", "dlog_deriv")),
    ("field_model", "FieldModel", ("phi", "dphi", "d2phi")),
    ("nads_core", "SnapshotSeries", ("snapshot",)),
)

#: The entry point, and same-module references the layer metrics need.
_OWN_MODULE = (
    ("cli", "main"),
    ("tdse", "propagate_fixed"),
    ("tdse", "evolve"),
    ("scenario", "scenario_from_dict"),
)


def layer_of(obj: Any) -> Optional[str]:
    """The ``nads`` layer that defines ``obj``, or None."""
    parts = (getattr(obj, "__module__", None) or "").split(".")
    if len(parts) >= 2 and parts[0] == "nads" and parts[1] in LAYERS:
        return parts[1]
    return None


def _is_function(obj: Any) -> bool:
    return isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)) or (
        "cython_function" in type(obj).__name__
    )


@dataclass(frozen=True)
class Target:
    """One reference to replace: ``owner.attr`` (or ``owner[attr]``)."""

    owner: Any
    attr: str
    name: str
    item: bool = False


class Tracer:
    """Records spans and boundary counters for wrapped callables.

    ``clock`` is injectable so tests can drive a call tree with exact times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[Target, Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.check_seconds: dict[str, float] = defaultdict(float)
        self.evolve_log: list[tuple[int, int]] = []
        self.observer_errors = 0

    # -- recording -------------------------------------------------------

    def _register(self) -> tuple[list, list]:
        spans: list = []
        stack: list = []
        self._local.spans = spans
        self._local.stack = stack
        with self._lock:
            self._buffers.append(spans)
        return spans, stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped so each call records a span ``name``."""
        nid = self._name_id(name)
        clock = self._clock
        local = self._local
        observe = _OBSERVERS.get(name.split(".", 1)[1]) if "." in name else None
        if name.startswith("validation.check_"):
            observe = _observe_check
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                spans = local.spans
                stack = local.stack
            except AttributeError:
                spans, stack = tracer._register()
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1] if stack else -1)
            if observe is not None:
                try:
                    observe(tracer, fn, args, kwargs, result, end - start)
                except Exception:  # an observer must never break the run
                    tracer.observer_errors += 1
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            if target.item:
                original = target.owner[target.attr]
                target.owner[target.attr] = self.wrap(original, target.name)
            else:
                original = getattr(target.owner, target.attr)
                setattr(target.owner, target.attr, self.wrap(original, target.name))
            self._patches.append((target, original))

    def uninstall(self) -> None:
        for target, original in reversed(self._patches):
            if target.item:
                target.owner[target.attr] = original
            else:
                setattr(target.owner, target.attr, original)
        self._patches.clear()

    # -- draining --------------------------------------------------------

    def drain(self) -> "PassTrace":
        """Take the spans and counters recorded so far and reset them.

        Call only between passes, when no wrapped call is open: each thread
        keeps its buffer and refills it from index 0.
        """
        rows = []
        with self._lock:
            for thread, spans in enumerate(self._buffers):
                base = len(rows)
                for nid, start, end, parent in spans:
                    rows.append((thread, nid, start, end,
                                 parent + base if parent >= 0 else -1))
                spans.clear()
            counters = dict(self.counters)
            self.counters = defaultdict(float)
            checks = dict(self.check_seconds)
            self.check_seconds = defaultdict(float)
            evolve_log = self.evolve_log
            self.evolve_log = []
        return PassTrace.from_rows(rows, list(self.names), counters, checks, evolve_log)


def discover(nads_modules: dict[str, types.ModuleType]) -> tuple[list[Target], list[str]]:
    """Every reference the tracer wraps, and the expected names not found."""
    targets: list[Target] = []
    missing: list[str] = []
    for layer, module in nads_modules.items():
        for attr, value in sorted(vars(module).items()):
            owner_layer = layer_of(value)
            if _is_function(value) and owner_layer and owner_layer != layer:
                targets.append(Target(module, attr, f"{owner_layer}.{value.__name__}"))
    for layer, attr in _OWN_MODULE:
        module = nads_modules.get(layer)
        if module is None or not _is_function(getattr(module, attr, None)):
            missing.append(f"{layer}.{attr}")
            continue
        targets.append(Target(module, attr, f"{layer}.{attr}"))
    validation = nads_modules.get("validation")
    if validation is not None:
        for attr, value in sorted(vars(validation).items()):
            if attr.startswith("check_") and layer_of(value) == "validation":
                targets.append(Target(validation, attr, f"validation.{attr}"))
    reducers = getattr(nads_modules.get("cli"), "REDUCERS", None)
    if isinstance(reducers, dict):
        for key, value in sorted(reducers.items()):
            if _is_function(value):
                targets.append(Target(reducers, key, f"cli.reduce_{key}", item=True))
    else:
        missing.append("cli.REDUCERS")
    for layer, cls_name, methods in _METHODS:
        cls = getattr(nads_modules.get(layer), cls_name, None)
        for method in methods:
            if cls is None or not _is_function(vars(cls).get(method)):
                missing.append(f"{layer}.{cls_name}.{method}")
                continue
            targets.append(Target(cls, method, f"{layer}.{cls_name}.{method}"))
    return targets, missing


def import_layers() -> tuple[dict[str, types.ModuleType], list[str]]:
    """Import each ``nads`` layer module that exists."""
    modules = {}
    missing = []
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"nads.{layer}")
        except ImportError:
            missing.append(layer)
    return modules, missing


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_snapshot_series(tracer, fn, args, kwargs, result, seconds):
    tracer.add("nads_core.points", len(result))
    tracer.add("nads_core.snapshot_series_s", seconds)
    tracer.add(
        "nads_core.branch_negations",
        sum(int(np.count_nonzero(np.asarray(log) == -1))
            for log in result.branch_log.values()),
    )


def _observe_propagate(tracer, fn, args, kwargs, result, seconds):
    arguments = _bound(fn, args, kwargs)
    n = len(arguments["grid"])
    n_sub = int(arguments["n_sub"])
    tracer.add("tdse.stage_points", 2 * (n - 1) * n_sub + 1)
    with tracer._lock:
        tracer.counters["tdse.n_sub_max"] = max(tracer.counters["tdse.n_sub_max"], n_sub)


def _observe_evolve(tracer, fn, args, kwargs, result, seconds):
    n = len(result.grid)
    tracer.add("tdse.accepted_stage_points", 2 * (n - 1) * result.n_sub + 1)
    with tracer._lock:
        tracer.evolve_log.append((n, int(result.n_sub)))


def _observe_kernel(tracer, fn, args, kwargs, result, seconds):
    stage_k = args[0] if args else kwargs["stage_k"]
    tracer.add("kernels.stage_points", len(stage_k))


def _observe_table(tracer, fn, args, kwargs, result, seconds):
    arguments = _bound(fn, args, kwargs)
    names = list(arguments["names"])
    columns = arguments["columns"]
    rows = len(columns[0]) if len(columns) else 0
    tracer.add("tables.cells", len(names) * rows)
    if names and names[-1] == "error":
        tracer.add("cli.sweep_points", rows)
        tracer.add("cli.sweep_error_cells", sum(1 for cell in columns[-1] if cell))


def _observe_write(tracer, fn, args, kwargs, result, seconds):
    text = args[0] if args else kwargs["text"]
    tracer.add("tables.bytes", len(text))  # tables are ASCII


def _observe_check(tracer, fn, args, kwargs, result, seconds):
    with tracer._lock:
        tracer.check_seconds[result.name] += seconds


_OBSERVERS = {
    "snapshot_series": _observe_snapshot_series,
    "propagate_fixed": _observe_propagate,
    "evolve": _observe_evolve,
    "rk4_pair": _observe_kernel,
    "table_text": _observe_table,
    "table_json": _observe_table,
    "write_text": _observe_write,
}


@dataclass
class PassTrace:
    """Spans of one traced pass as arrays, plus the boundary counters."""

    names: list[str]
    thread: np.ndarray
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    counters: dict[str, float]
    check_seconds: dict[str, float]
    evolve_log: list[tuple[int, int]]

    @classmethod
    def from_rows(cls, rows, names, counters, checks, evolve_log) -> "PassTrace":
        arr = np.array(rows, dtype=float).reshape(-1, 5)
        return cls(
            names=names,
            thread=arr[:, 0].astype(np.int32),
            name_id=arr[:, 1].astype(np.int32),
            start=arr[:, 2],
            end=arr[:, 3],
            parent=arr[:, 4].astype(np.int64),
            counters=counters,
            check_seconds=checks,
            evolve_log=list(evolve_log),
        )

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part its direct children cover."""
        duration = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=duration[has_parent],
            minlength=len(duration),
        )
        return duration - covered

    def by_name(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}."""
        self_s = self.self_times()
        count = np.bincount(self.name_id, minlength=len(self.names))
        total = np.bincount(self.name_id, weights=self_s, minlength=len(self.names))
        return {
            name: (int(count[i]), float(total[i]))
            for i, name in enumerate(self.names)
            if count[i]
        }


#: Names ``validate`` reports, one ``validation.<name>.total_s`` metric each.
CHECK_NAMES = (
    "trig_identity",
    "lambda_consistency",
    "lambda_tilde_consistency",
    "static_reality",
    "branch_continuity",
    "adiabatic_theorem",
    "probability_bound",
    "microreversibility",
    "exponential_cancellation",
    "overlap_conjugation",
    "norm_positivity",
    "rabi_pi_pulse",
    "norm_conservation",
    "field_free_decay",
    "landau_zener",
    "derivative_hygiene",
)


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter: ``_kernels`` reports as ``kernels``."""
    return layer.lstrip("_")


def _per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(trace: PassTrace) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats = trace.by_name()
    counters = trace.counters
    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [v for name, v in stats.items() if name.split(".", 1)[0] == layer]
        out[f"{metric_prefix(layer)}.calls"] = sum(calls for calls, _ in rows)
        out[f"{metric_prefix(layer)}.self_s"] = sum(self_s for _, self_s in rows)

    points = counters.get("nads_core.points", 0)
    out["nads_core.points"] = points
    out["nads_core.points_per_s"] = _per_second(
        points, counters.get("nads_core.snapshot_series_s", 0.0)
    )
    out["nads_core.branch_negations"] = counters.get("nads_core.branch_negations", 0)

    out["overlap_transitions.point_calls"] = sum(
        calls for name, (calls, _) in stats.items()
        if name.startswith("overlap_transitions.")
        and name.split(".", 1)[1] in POINT_FUNCTIONS
    )

    stage_points = counters.get("tdse.stage_points", 0)
    out["tdse.passes"] = stats.get("tdse.propagate_fixed", (0, 0.0))[0]
    out["tdse.stage_points"] = stage_points
    out["tdse.useful_ratio"] = (
        counters.get("tdse.accepted_stage_points", 0) / stage_points
        if stage_points else 0.0
    )
    out["tdse.n_sub_max"] = counters.get("tdse.n_sub_max", 0)

    kernel_points = counters.get("kernels.stage_points", 0)
    out["kernels.stage_points"] = kernel_points
    out["kernels.stage_points_per_s"] = _per_second(
        kernel_points, out["kernels.self_s"]
    )

    cells = counters.get("tables.cells", 0)
    out["tables.cells"] = cells
    out["tables.bytes"] = counters.get("tables.bytes", 0)
    out["tables.cells_per_s"] = _per_second(cells, out["tables.self_s"])

    out["scenario.parses"] = stats.get("scenario.scenario_from_dict", (0, 0.0))[0]
    out["cli.sweep_points"] = counters.get("cli.sweep_points", 0)
    out["cli.sweep_error_cells"] = counters.get("cli.sweep_error_cells", 0)

    for check in CHECK_NAMES:
        out[f"validation.{check}.total_s"] = trace.check_seconds.get(check, 0.0)
    return out
