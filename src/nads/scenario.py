"""Scenario files: strict-schema loading, validation, serialization and
parameter-sweep axes.

A scenario is a JSON document with sections ``system``, ``field``, ``grid``
and ``integrator`` plus a name, an output list and an initial state. The
schema is closed: unknown keys are rejected with a nearest-key suggestion
and defaults are filled in at load time. The keys, defaults and value checks
of every section are the fields and constructors of a frozen dataclass:
``system`` and ``field`` of the ``field_model`` classes, ``grid`` of
:class:`Grid` and ``integrator`` of :class:`Integrator`. Exactly the
choices ``grid.step_policy``, ``integrator.frame`` and ``initial_state``
default to a string, so a field with a string default takes a JSON
string, which its constructor checks against a ``Literal``. Every rule,
the tau/400 step rule of :class:`Scenario` included, is checked by a
constructor, so it holds in code, in files and at each sweep point.
``Scenario.resolved`` echoes those fields, so load(serialize(s))
reproduces s exactly.

A sweep axis is a plain (dotted path, values) pair. ``parse_axis`` checks
its text and its path against the resolved document before any point runs;
``with_axis_values`` rebuilds the sections on those paths with one point's
values.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib.resources import files
from typing import Any, Literal, Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .field_model import (
    DEFAULT_ATOL,
    DEFAULT_FRAME,
    DEFAULT_INIT,
    DEFAULT_RTOL,
    Chirp,
    ConstantEnvelope,
    FieldModel,
    Frame,
    GaussianEnvelope,
    InitialState,
    SechEnvelope,
    SystemParams,
    _require_choice,
    _require_finite,
    _require_positive,
    _suggest,
)
from .nads_core import uniform_grid

__all__ = [
    "Grid",
    "Integrator",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "serialize",
    "parse_axis",
    "with_axis_values",
    "list_shipped",
    "shipped_path",
    "load_shipped",
]

#: Pulsed envelopes must satisfy step <= tau / STEP_FRACTION.
STEP_FRACTION = 400.0

_ENVELOPES = {
    cls.kind: cls for cls in (ConstantEnvelope, GaussianEnvelope, SechEnvelope)
}
_OUTPUTS = ("snapshot", "evolve")

#: What a step above tau/STEP_FRACTION of a pulsed envelope does: it fails.
StepPolicy = Literal["error"]


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t_start + k*step, k = 0..n, covering [t_start, t_end]
    in a whole number n >= 1 of steps, whose points are uniform as floats
    (see :func:`nads.nads_core.uniform_grid`). ``step_policy`` has the one
    value ``"error"``: a step above tau/STEP_FRACTION of a pulsed envelope
    fails in a :class:`Scenario`. Calling the grid gives its points."""

    t_start: float
    t_end: float
    step: float
    step_policy: StepPolicy = "error"

    def __post_init__(self):
        _require_choice("Grid.step_policy", self.step_policy, StepPolicy)
        _require_finite("Grid", t_start=self.t_start, t_end=self.t_end, step=self.step)
        _require_positive("Grid", step=self.step)
        if not self.t_end > self.t_start:
            raise ValidationError(
                f"grid.t_end ({self.t_end}) must exceed grid.t_start ({self.t_start})"
            )
        interval = f"[{self.t_start}, {self.t_end}]"
        n_float = (self.t_end - self.t_start) / self.step
        if not math.isfinite(n_float):
            raise ValidationError(
                f"grid.step ({self.step}): the number of steps in {interval} overflows a float"
            )
        n = round(n_float)
        if n < 1 or abs(n_float - n) > 1e-9 * max(1.0, n):
            raise ValidationError(
                f"grid.step ({self.step}) must divide the interval "
                f"{interval} into a whole number of steps"
            )
        try:
            points = self()
        except ValueError as exc:  # NumPy refuses an array of that size
            raise ValidationError(
                f"grid.step ({self.step}) divides {interval} into {n_float:g} steps, "
                "more points than an array can hold"
            ) from exc
        try:
            uniform_grid(points)
        except ValidationError as exc:
            raise ValidationError(
                f"grid.step ({self.step}) is too fine for floats on {interval}: "
                "the grid points are not uniformly spaced"
            ) from exc

    def __call__(self) -> np.ndarray:
        n = round((self.t_end - self.t_start) / self.step)
        return self.t_start + self.step * np.arange(n + 1)


@dataclass(frozen=True)
class Integrator:
    """Frame and positive tolerances of the RK4 cross-check. ``rtol`` and
    ``atol`` are keyword arguments of :func:`nads.tdse.evolve`; ``frame``
    has the one value the integrator runs in."""

    frame: Frame = DEFAULT_FRAME
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL

    def __post_init__(self):
        _require_choice("Integrator.frame", self.frame, Frame)
        _require_finite("Integrator", rtol=self.rtol, atol=self.atol)
        _require_positive("Integrator", rtol=self.rtol, atol=self.atol)


@dataclass(frozen=True)
class Scenario:
    """Fully validated run description with every default filled in."""

    name: str
    system: SystemParams
    field: FieldModel
    grid: Grid
    integrator: Integrator = Integrator()
    outputs: tuple[str, ...] = ("snapshot",)
    initial_state: InitialState = DEFAULT_INIT

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("Scenario.name must be a non-empty string")
        env, step = self.field.envelope, self.grid.step
        if env.kind != "constant" and step > env.tau / STEP_FRACTION * (1 + 1e-12):
            raise ValidationError(
                f"grid.step ({step}) exceeds tau/{STEP_FRACTION:.0f} "
                f"({env.tau / STEP_FRACTION}) for the pulsed envelope"
            )
        for out in self.outputs:
            _require_choice("Scenario.outputs", out, _OUTPUTS)
        _require_choice("Scenario.initial_state", self.initial_state, InitialState)

    def resolved(self) -> dict:
        """Plain-dict echo of the scenario, defaults included.

        Every section is the fields of its parsed object, so this document
        and ``scenario_from_dict`` cannot drift apart.
        """
        return {**_echo(self), "outputs": list(self.outputs)}


def _echo(obj) -> dict:
    """The fields of a parsed dataclass as a plain dict, nested dataclasses
    included, with the envelope's ``kind`` first."""
    out = {"kind": obj.kind} if hasattr(obj, "kind") else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _echo(value) if is_dataclass(value) else value
    return out


def _mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, Mapping):
        raise ParseError(f"{path} must be an object, got {type(obj).__name__}")
    return dict(obj)


def _check_keys(doc: Mapping, allowed, path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ParseError(f"unknown key '{key}' in {path}{_suggest(key, allowed)}")


def _num(doc: Mapping, key: str, path: str) -> float:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _string(doc: Mapping, key: str, path: str) -> str:
    if key not in doc:
        raise ParseError(f"missing required key '{key}' in {path}")
    value = doc[key]
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key} must be a string, got {value!r}")
    return value


def _strings(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{path} must be a list of strings")
    return tuple(value)


def _build(cls, doc: Any, path: str, extra=(), **nested):
    """Dataclass ``cls`` from the object ``doc`` at ``path``: keys are its
    fields plus ``extra``, a field without a default is required, ``nested``
    maps a field to its parser, a field whose default is a string (the
    three choices) takes a string, ``null`` is kept where the default is
    None and other values are numbers.
    Only these JSON types are checked here; the values, finiteness
    included, are the constructor's to check."""
    doc = _mapping(doc, path)
    schema = fields(cls)
    _check_keys(doc, [f.name for f in schema] + list(extra), path)
    kwargs = {}
    for f in schema:
        if f.name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ParseError(f"missing required key '{f.name}' in {path}")
        elif f.name in nested:
            kwargs[f.name] = nested[f.name](doc[f.name], f"{path}.{f.name}")
        elif isinstance(f.default, str):
            kwargs[f.name] = _string(doc, f.name, path)
        elif doc[f.name] is None and f.default is None:
            kwargs[f.name] = None
        else:
            kwargs[f.name] = _num(doc, f.name, path)
    return _construct(cls, path, kwargs)


def _construct(cls, path: str, kwargs: dict):
    """``cls(**kwargs)``, its messages naming ``path`` instead of the class."""
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        message = str(exc)
        relabeled = message.removeprefix(f"{cls.__name__}.")
        if relabeled == message:
            raise
        raise ValidationError(f"{path}.{relabeled}") from exc


def _section(cls, **nested):
    """Parser of a top-level section, which messages name by its key alone."""
    return lambda doc, path: _build(cls, doc, path.rpartition(".")[2], **nested)


def _envelope(doc: Any, path: str):
    kind = _string(_mapping(doc, path), "kind", path)
    _require_choice(f"{path}.kind", kind, _ENVELOPES)
    return _build(_ENVELOPES[kind], doc, path, extra=("kind",))


def _phase(doc: Any, path: str) -> Chirp:
    return Chirp() if doc is None else _build(Chirp, doc, path)


def scenario_from_dict(data: Mapping) -> Scenario:
    """Validate a parsed scenario document and fill defaults.

    Raises ParseError for structural problems (unknown/missing keys, wrong
    types) and ValidationError for violated bounds, a non-finite number
    included, both naming the field.
    """
    return _build(
        Scenario, data, "scenario",
        name=lambda value, path: value,
        system=_section(SystemParams),
        field=_section(FieldModel, envelope=_envelope, phase=_phase),
        grid=_section(Grid),
        integrator=_section(Integrator),
        outputs=_strings,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file.

    Raises ParseError with the file name (and line, for malformed JSON) for
    a file that cannot be read, is not UTF-8 text or is not JSON.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    try:
        return scenario_from_dict(data)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def serialize(scenario: Scenario) -> str:
    """Canonical JSON text of the resolved scenario (sorted keys, 2-space
    indent, trailing newline); loading it reproduces the scenario exactly."""
    return json.dumps(scenario.resolved(), indent=2, sort_keys=True) + "\n"


def parse_axis(text: str, resolved: Mapping) -> tuple[str, np.ndarray]:
    """Parse '<path>:<min>:<max>:<count>[:log]' into the axis path and its
    linearly or logarithmically spaced values.

    The path must name a numeric field of the resolved scenario document
    ``resolved``. Raises ParseError for a malformed axis and ValidationError
    for an unknown spacing tag, a count below 2 or beyond an array's size,
    non-positive log bounds, a bad path or spacing that overflows to
    non-finite values.
    """
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ParseError(
            f"axis '{text}' must have the form path:min:max:count[:log]"
        )
    path = parts[0]
    try:
        start = float(parts[1])
        stop = float(parts[2])
    except ValueError as exc:
        raise ParseError(f"axis '{text}': bounds must be numbers") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParseError(f"axis '{text}': bounds must be finite")
    try:
        count = int(parts[3])
    except ValueError as exc:
        raise ParseError(f"axis '{text}': count must be an integer") from exc
    if len(parts) == 5:
        _require_choice(f"axis '{text}': trailing tag", parts[4], ("log", "linear"))
    log = parts[4:] == ["log"]
    if count < 2:
        raise ValidationError(f"axis {path}: count must be >= 2")
    if log and (start <= 0 or stop <= 0):
        raise ValidationError(f"axis {path}: log spacing requires positive bounds")

    node: Any = resolved
    seen: list[str] = []
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            where = ".".join(seen) or "scenario"
            allowed = list(node.keys()) if isinstance(node, Mapping) else []
            raise ValidationError(
                f"axis path '{path}': no key '{part}' under {where}"
                f"{_suggest(part, allowed)}"
            )
        seen.append(part)
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"axis path '{path}' does not name a numeric field")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = (np.geomspace if log else np.linspace)(start, stop, count)
    except ValueError as exc:  # NumPy refuses an array of that size
        raise ValidationError(
            f"axis {path}: {count} values are more than an array can hold"
        ) from exc
    if not np.isfinite(values).all():
        raise ValidationError(
            f"axis {path}: spacing {count} values from {start:g} to {stop:g} "
            "overflows to non-finite values"
        )
    return path, values


def with_axis_values(scenario: Scenario, pairs) -> Scenario:
    """The scenario with each (dotted path, value) pair of a sweep point
    written in. The sections on the paths are rebuilt through their
    constructors in field order, so a point is checked as a loaded
    document is; the other sections are reused."""
    return _rebuild(scenario, {path: float(value) for path, value in pairs}, ())


def _rebuild(obj, values: dict, keys: tuple):
    """``obj``, the section at the dotted path ``keys``, rebuilt with the
    ``values`` of the paths under it."""
    path = ".".join(keys) or "scenario"
    kwargs = {}
    for f in fields(obj):
        key = ".".join((*keys, f.name))
        kwargs[f.name] = getattr(obj, f.name)
        if key in values:
            kwargs[f.name] = _num({f.name: values[key]}, f.name, path)
        elif any(other.startswith(f"{key}.") for other in values):
            kwargs[f.name] = _rebuild(kwargs[f.name], values, (*keys, f.name))
    return _construct(type(obj), path, kwargs)


def _scenario_dir():
    return files("nads").joinpath("scenarios")


def list_shipped() -> list[str]:
    """Names of the scenario files shipped with the package."""
    names = [
        entry.name[: -len(".json")]
        for entry in _scenario_dir().iterdir()
        if entry.name.endswith(".json")
    ]
    return sorted(names)


def shipped_path(name: str):
    """Filesystem path of a shipped scenario by bare name."""
    entry = _scenario_dir().joinpath(f"{name}.json")
    if not entry.is_file():
        raise ValidationError(
            f"no shipped scenario '{name}'{_suggest(name, list_shipped())}"
        )
    return entry


def load_shipped(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package."""
    return load_scenario(str(shipped_path(name)))
