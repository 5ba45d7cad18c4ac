"""Scenario files: strict-schema loading, validation, serialization and
parameter-sweep axes.

A scenario is a JSON document with sections ``system``, ``field``, ``grid``
and ``integrator`` plus a name, an output list and an initial state. The
schema is closed: unknown keys are rejected with a nearest-key suggestion
and defaults are filled in at load time. The keys, defaults and value checks
of ``system`` and ``field`` are the fields and constructors of the
``field_model`` dataclasses, and ``Scenario.resolved`` echoes those fields,
so load(serialize(s)) reproduces s exactly.

A sweep axis is a plain (dotted path, values) pair. ``parse_axis`` checks
its text and its path against the resolved document before any point runs;
``with_axis_values`` writes one point's values into a copy of that document.
"""

from __future__ import annotations

import copy
import difflib
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib.resources import files
from typing import Any, Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)

__all__ = [
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

#: Pulsed envelopes must satisfy step <= tau / STEP_FRACTION on load.
STEP_FRACTION = 400.0

_ENVELOPES = {
    cls.kind: cls for cls in (ConstantEnvelope, GaussianEnvelope, SechEnvelope)
}
_FRAMES = ("lab", "rotating")
_POLICIES = ("error", "warn")
_OUTPUTS = ("snapshot", "evolve")
_INITS = ("ground", "excited")

_REQUIRED = object()


@dataclass(frozen=True)
class Scenario:
    """Fully validated run description with every default filled in."""

    name: str
    system: SystemParams
    field: FieldModel
    t_start: float
    t_end: float
    step: float
    step_policy: str
    frame: str
    rtol: float
    atol: float
    outputs: tuple[str, ...]
    initial_state: str

    def grid(self) -> np.ndarray:
        """Uniform time grid t_start + k*step covering [t_start, t_end]."""
        n = int(round((self.t_end - self.t_start) / self.step))
        return self.t_start + self.step * np.arange(n + 1)

    def resolved(self) -> dict:
        """Plain-dict echo of the scenario, defaults included.

        The system and field entries are the fields of the parsed objects,
        so this document and ``scenario_from_dict`` cannot drift apart.
        """
        return {
            "name": self.name,
            "system": _echo(self.system),
            "field": _echo(self.field),
            "grid": {
                "t_start": self.t_start,
                "t_end": self.t_end,
                "step": self.step,
                "step_policy": self.step_policy,
            },
            "integrator": {
                "frame": self.frame,
                "rtol": self.rtol,
                "atol": self.atol,
            },
            "outputs": list(self.outputs),
            "initial_state": self.initial_state,
        }


def _echo(obj) -> dict:
    """The fields of a parsed dataclass as a plain dict, nested dataclasses
    included, with the envelope's ``kind`` first."""
    out = {"kind": obj.kind} if hasattr(obj, "kind") else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _echo(value) if is_dataclass(value) else value
    return out


def _suggest(key: str, allowed) -> str:
    matches = difflib.get_close_matches(key, list(allowed), n=1, cutoff=0.5)
    return f"; did you mean '{matches[0]}'?" if matches else ""


def _mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, Mapping):
        raise ParseError(f"{path} must be an object, got {type(obj).__name__}")
    return dict(obj)


def _check_keys(doc: Mapping, allowed, path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ParseError(f"unknown key '{key}' in {path}{_suggest(key, allowed)}")


def _num(doc: Mapping, key: str, path: str, default: Any = _REQUIRED) -> float:
    if key not in doc:
        if default is _REQUIRED:
            raise ParseError(f"missing required key '{key}' in {path}")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}.{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{path}.{key} must be a finite number, got {doc[key]!r}")
    return value


def _string(doc: Mapping, key: str, path: str, allowed, default: Any = _REQUIRED) -> str:
    if key not in doc:
        if default is _REQUIRED:
            raise ParseError(f"missing required key '{key}' in {path}")
        return default
    value = doc[key]
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key} must be a string, got {value!r}")
    if allowed is not None and value not in allowed:
        raise ValidationError(
            f"{path}.{key} must be one of {list(allowed)}, got '{value}'"
            f"{_suggest(value, allowed)}"
        )
    return value


def _positive(value: float, path: str) -> float:
    if not value > 0:
        raise ValidationError(f"{path} must be positive, got {value}")
    return value


def _build(cls, doc: Any, path: str, extra=(), **nested):
    """Dataclass ``cls`` from the object ``doc`` at ``path``: keys are its
    fields plus ``extra``, a field without a default is required, ``nested``
    maps a field to its parser, ``null`` is kept where the default is None
    and other values are finite numbers. The constructor's messages name
    ``path`` instead of the class."""
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
        elif doc[f.name] is None and f.default is None:
            kwargs[f.name] = None
        else:
            kwargs[f.name] = _num(doc, f.name, path)
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        message = str(exc)
        relabeled = message.removeprefix(f"{cls.__name__}.")
        if relabeled == message:
            raise
        raise ValidationError(f"{path}.{relabeled}") from exc


def _envelope(doc: Any, path: str):
    kind = _string(_mapping(doc, path), "kind", path, _ENVELOPES)
    return _build(_ENVELOPES[kind], doc, path, extra=("kind",))


def _phase(doc: Any, path: str) -> Chirp:
    return Chirp() if doc is None else _build(Chirp, doc, path)


def scenario_from_dict(data: Mapping, origin: str = "scenario") -> Scenario:
    """Validate a parsed scenario document and fill defaults.

    Raises ParseError for structural problems (unknown/missing keys, wrong
    types) and ValidationError for violated bounds, both naming the field.
    """
    doc = _mapping(data, origin)
    _check_keys(
        doc,
        ("name", "system", "field", "grid", "integrator", "outputs", "initial_state"),
        origin,
    )
    for section in ("name", "system", "field", "grid"):
        if section not in doc:
            raise ParseError(f"missing required key '{section}' in {origin}")
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise ParseError(f"{origin}.name must be a non-empty string")
    name = doc["name"]

    system = _build(SystemParams, doc["system"], "system")
    field = _build(FieldModel, doc["field"], "field", envelope=_envelope, phase=_phase)

    grid_doc = _mapping(doc["grid"], "grid")
    _check_keys(grid_doc, ("t_start", "t_end", "step", "step_policy"), "grid")
    t_start = _num(grid_doc, "t_start", "grid")
    t_end = _num(grid_doc, "t_end", "grid")
    step = _positive(_num(grid_doc, "step", "grid"), "grid.step")
    step_policy = _string(grid_doc, "step_policy", "grid", _POLICIES, "error")
    if not t_end > t_start:
        raise ValidationError(
            f"grid.t_end ({t_end}) must exceed grid.t_start ({t_start})"
        )
    n_float = (t_end - t_start) / step
    n = round(n_float)
    if n < 1 or abs(n_float - n) > 1e-9 * max(1.0, n):
        raise ValidationError(
            f"grid.step ({step}) must divide the interval "
            f"[{t_start}, {t_end}] into a whole number of steps"
        )
    env = field.envelope
    if env.kind != "constant" and step > env.tau / STEP_FRACTION * (1 + 1e-12):
        message = (
            f"grid.step ({step}) exceeds tau/{STEP_FRACTION:.0f} "
            f"({env.tau / STEP_FRACTION}) for the pulsed envelope"
        )
        if step_policy == "error":
            raise ValidationError(message)
        warnings.warn(message, stacklevel=2)

    integ_doc = _mapping(doc.get("integrator", {}), "integrator")
    _check_keys(integ_doc, ("frame", "rtol", "atol"), "integrator")
    frame = _string(integ_doc, "frame", "integrator", _FRAMES, "rotating")
    rtol = _positive(_num(integ_doc, "rtol", "integrator", 1e-10), "integrator.rtol")
    atol = _positive(_num(integ_doc, "atol", "integrator", 1e-12), "integrator.atol")

    outputs_doc = doc.get("outputs", ["snapshot"])
    if not isinstance(outputs_doc, list) or not all(
        isinstance(o, str) for o in outputs_doc
    ):
        raise ParseError(f"{origin}.outputs must be a list of strings")
    for out in outputs_doc:
        if out not in _OUTPUTS:
            raise ValidationError(
                f"outputs entry '{out}' must be one of {list(_OUTPUTS)}"
                f"{_suggest(out, _OUTPUTS)}"
            )
    initial_state = _string(doc, "initial_state", origin, _INITS, "ground")

    return Scenario(
        name=name,
        system=system,
        field=field,
        t_start=t_start,
        t_end=t_end,
        step=step,
        step_policy=step_policy,
        frame=frame,
        rtol=rtol,
        atol=atol,
        outputs=tuple(outputs_doc),
        initial_state=initial_state,
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
        return scenario_from_dict(data, origin="scenario")
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
    for a count below 2, non-positive log bounds or a bad path.
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
    if len(parts) == 5 and parts[4] not in ("log", "linear"):
        raise ParseError(f"axis '{text}': trailing tag must be 'log' or 'linear'")
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
    return path, (np.geomspace if log else np.linspace)(start, stop, count)


def with_axis_values(resolved: Mapping, pairs) -> dict:
    """One deep copy of the resolved document with each (dotted path,
    value) pair of a sweep point written in."""
    doc = copy.deepcopy(dict(resolved))
    for path, value in pairs:
        *parents, leaf = path.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[leaf] = float(value)
    return doc


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
