"""Exact exit codes and error lines for single-fault scenario documents.

Each case changes one key of a valid document with every section and key
written out and runs ``nads snapshot`` on it. A case
expecting exit 0 checks that stderr stays empty; the others check the whole
``error:`` line, file prefix included.
"""

from __future__ import annotations

import json

import pytest

from nads.cli import main

#: Marks a key to delete instead of set.
DROP = object()

ENVELOPE_KEYS = {
    "constant": {"omega0": 1.0},
    "gaussian": {"omega0": 1.0, "t_center": 0.5, "tau": 2.0},
    "sech": {"omega0": 1.0, "t_center": 0.5, "tau": 2.0},
}


def base_doc(kind: str) -> dict:
    """A valid document; its step resolves a pulse of the default tau = 1."""
    return {
        "name": "messages",
        "system": {
            "omega_g": 0.0, "omega_e": 5.0, "mu": 1.0,
            "gamma_g": 0.0, "gamma_e": 0.0,
        },
        "field": {
            "carrier_omega": 4.0,
            "envelope": {"kind": kind, **ENVELOPE_KEYS[kind]},
            "phase": {"phi0": 0.0, "beta": 0.001, "t_center": 0.0},
        },
        "grid": {"t_start": 0.0, "t_end": 1.0, "step": 0.0025, "step_policy": "error"},
        "integrator": {"frame": "rotating", "rtol": 1e-10, "atol": 1e-12},
        "outputs": ["snapshot"],
        "initial_state": "ground",
    }


def number_cases(section: str, key: str, required: bool, positive: bool):
    """Missing, null, string, bool, NaN, an integer too large for a float
    and (for positive fields) 0 and -1."""
    path = f"{section}.{key}"
    cases = [
        (key, DROP, 1, f"missing required key '{key}' in {section}")
        if required else (key, DROP, 0, ""),
        (key, None, 1, f"{path} must be a number, got None"),
        (key, "1.0", 1, f"{path} must be a number, got '1.0'"),
        (key, True, 1, f"{path} must be a number, got True"),
        (key, float("nan"), 1, f"{path} must be finite, got nan"),
        (key, 10**400, 1, f"{path} must be finite, got inf"),
    ]
    if positive:
        cases += [
            (key, 0, 1, f"{path} must be positive, got 0.0"),
            (key, -1, 1, f"{path} must be positive, got -1.0"),
        ]
    return cases


def cases():
    """(id, envelope kind, dotted section, key, value, exit code, message)."""
    table = []

    def add(kind, section, rows):
        for key, value, code, message in rows:
            label = "drop" if value is DROP else repr(value)
            if len(label) > 40:  # a JSON integer too large for a float
                label = f"{'-' * (value < 0)}10**{len(str(abs(value))) - 1}"
            table.append(pytest.param(
                kind, section, key, value, code, message,
                id=f"{kind}-{section + '.' if section else ''}{key}={label}",
            ))

    system = [
        *number_cases("system", "omega_g", required=True, positive=False),
        *number_cases("system", "omega_e", required=True, positive=False),
        *number_cases("system", "mu", required=False, positive=True),
        *number_cases("system", "gamma_g", required=False, positive=False),
        *number_cases("system", "gamma_e", required=False, positive=False),
        ("omega_e", 0.0, 1, "omega_e (0.0) must exceed omega_g (0.0)"),
        ("omega_g", 6, 1, "omega_e (5.0) must exceed omega_g (6.0)"),
        ("gamma_g", -0.1, 1,
         "damping rates must be >= 0, got gamma_g=-0.1, gamma_e=0.0"),
        ("gamma_e", -0.1, 1,
         "damping rates must be >= 0, got gamma_g=0.0, gamma_e=-0.1"),
        ("gammma_e", 0.1, 1,
         "unknown key 'gammma_e' in system; did you mean 'gamma_e'?"),
        ("spin", 0.5, 1, "unknown key 'spin' in system"),
    ]
    add("gaussian", "system", system)

    field = [
        *number_cases("field", "carrier_omega", required=True, positive=True),
        ("envelope", DROP, 1, "missing required key 'envelope' in field"),
        ("envelope", None, 1, "field.envelope must be an object, got NoneType"),
        ("envelope", [], 1, "field.envelope must be an object, got list"),
        ("phase", DROP, 0, ""),
        ("phase", None, 0, ""),
        ("phase", 3, 1, "field.phase must be an object, got int"),
        ("phse", {}, 1, "unknown key 'phse' in field; did you mean 'phase'?"),
        ("carrier", 4.0, 1,
         "unknown key 'carrier' in field; did you mean 'carrier_omega'?"),
    ]
    add("gaussian", "field", field)
    add("constant", "field", [("phase", None, 0, "")])  # the default chirp

    kinds_message = "field.envelope.kind must be one of ['constant', 'gaussian', 'sech']"
    for kind in ENVELOPE_KEYS:
        envelope = [
            *number_cases("field.envelope", "omega0", required=True, positive=True),
            ("kind", DROP, 1, "missing required key 'kind' in field.envelope"),
            ("kind", None, 1, "field.envelope.kind must be a string, got None"),
            ("kind", "gauss", 1,
             f"{kinds_message}, got 'gauss'; did you mean 'gaussian'?"),
            ("kind", "box", 1, f"{kinds_message}, got 'box'"),
            ("omega_0", 1.0, 1,
             "unknown key 'omega_0' in field.envelope; did you mean 'omega0'?"),
        ]
        if kind == "constant":
            envelope += [
                ("tau", 1.0, 1, "unknown key 'tau' in field.envelope"),
                ("t_center", 0.0, 1, "unknown key 't_center' in field.envelope"),
            ]
        else:
            envelope += [
                *number_cases("field.envelope", "t_center", required=False, positive=False),
                *number_cases("field.envelope", "tau", required=False, positive=True),
                ("taus", 1.0, 1,
                 "unknown key 'taus' in field.envelope; did you mean 'tau'?"),
            ]
        add(kind, "field.envelope", envelope)

    phase = [
        *number_cases("field.phase", "phi0", required=False, positive=False),
        *number_cases("field.phase", "beta", required=False, positive=False),
        ("t_center", DROP, 0, ""),
        ("t_center", None, 0, ""),
        ("t_center", "1.0", 1, "field.phase.t_center must be a number, got '1.0'"),
        ("t_center", float("nan"), 1,
         "field.phase.t_center must be finite, got nan"),
        ("t_center", -10**400, 1, "field.phase.t_center must be finite, got -inf"),
        ("bta", 0.1, 1, "unknown key 'bta' in field.phase; did you mean 'beta'?"),
    ]
    add("gaussian", "field.phase", phase)

    grid = [
        *number_cases("grid", "t_start", required=True, positive=False),
        *number_cases("grid", "t_end", required=True, positive=False),
        *number_cases("grid", "step", required=True, positive=True),
        ("t_start", -1, 0, ""),
        ("t_start", 1, 1, "grid.t_end (1.0) must exceed grid.t_start (1.0)"),
        ("t_end", 0, 1, "grid.t_end (0.0) must exceed grid.t_start (0.0)"),
        ("t_end", -1, 1, "grid.t_end (-1.0) must exceed grid.t_start (0.0)"),
        ("step", 0.3, 1,
         "grid.step (0.3) must divide the interval [0.0, 1.0] "
         "into a whole number of steps"),
        ("step", 2, 1,
         "grid.step (2.0) must divide the interval [0.0, 1.0] "
         "into a whole number of steps"),
        ("step", 0.01, 1,
         "grid.step (0.01) exceeds tau/400 (0.005) for the pulsed envelope"),
        ("step_policy", DROP, 0, ""),
        ("step_policy", "warn", 0, ""),
        ("step_policy", None, 1, "grid.step_policy must be a string, got None"),
        ("step_policy", 1, 1, "grid.step_policy must be a string, got 1"),
        ("step_policy", "warning", 1,
         "grid.step_policy must be one of ['error', 'warn'], got 'warning'; "
         "did you mean 'warn'?"),
        ("step_policy", "strict", 1,
         "grid.step_policy must be one of ['error', 'warn'], got 'strict'"),
        ("stp", 0.1, 1, "unknown key 'stp' in grid; did you mean 'step'?"),
        ("points", 401, 1, "unknown key 'points' in grid"),
    ]
    add("gaussian", "grid", grid)

    frames_message = "integrator.frame must be one of ['rotating']"
    integrator = [
        *number_cases("integrator", "rtol", required=False, positive=True),
        *number_cases("integrator", "atol", required=False, positive=True),
        ("frame", DROP, 0, ""),
        ("frame", "lab", 1, f"{frames_message}, got 'lab'"),
        ("frame", None, 1, "integrator.frame must be a string, got None"),
        ("frame", 0, 1, "integrator.frame must be a string, got 0"),
        ("frame", "rotate", 1,
         f"{frames_message}, got 'rotate'; did you mean 'rotating'?"),
        ("frame", "Lab", 1, f"{frames_message}, got 'Lab'"),
        ("frame", "bogus", 1, f"{frames_message}, got 'bogus'"),
        ("rtoll", 1e-8, 1, "unknown key 'rtoll' in integrator; did you mean 'rtol'?"),
        ("method", "rk4", 1, "unknown key 'method' in integrator"),
    ]
    add("gaussian", "integrator", integrator)

    states_message = "scenario.initial_state must be one of ['ground', 'excited']"
    outputs_message = "scenario.outputs must be a list of strings"
    top = [
        ("name", DROP, 1, "missing required key 'name' in scenario"),
        ("name", None, 1, "scenario.name must be a non-empty string"),
        ("name", "", 1, "scenario.name must be a non-empty string"),
        ("name", 3, 1, "scenario.name must be a non-empty string"),
        ("system", DROP, 1, "missing required key 'system' in scenario"),
        ("field", DROP, 1, "missing required key 'field' in scenario"),
        ("grid", DROP, 1, "missing required key 'grid' in scenario"),
        ("grid", None, 1, "grid must be an object, got NoneType"),
        ("grid", [], 1, "grid must be an object, got list"),
        ("integrator", DROP, 0, ""),
        ("integrator", {}, 0, ""),
        ("integrator", None, 1, "integrator must be an object, got NoneType"),
        ("integrator", [], 1, "integrator must be an object, got list"),
        ("integrater", {}, 1,
         "unknown key 'integrater' in scenario; did you mean 'integrator'?"),
        ("initial_state", DROP, 0, ""),
        ("initial_state", "excited", 0, ""),
        ("initial_state", None, 1,
         "scenario.initial_state must be a string, got None"),
        ("initial_state", "Ground", 1,
         f"{states_message}, got 'Ground'; did you mean 'ground'?"),
        ("initial_state", "up", 1, f"{states_message}, got 'up'"),
        ("outputs", DROP, 0, ""),
        ("outputs", [], 0, ""),
        ("outputs", ["evolve", "snapshot"], 0, ""),
        ("outputs", None, 1, outputs_message),
        ("outputs", "snapshot", 1, outputs_message),
        ("outputs", [1], 1, outputs_message),
        ("outputs", ["snap"], 1,
         "scenario.outputs must be one of ['snapshot', 'evolve'], got 'snap'; "
         "did you mean 'snapshot'?"),
    ]
    add("gaussian", "", top)

    for section in ("system", "field"):
        table.append(pytest.param(
            "gaussian", "", section, None, 1,
            f"{section} must be an object, got NoneType",
            id=f"gaussian-{section}=None",
        ))
    return table


@pytest.mark.parametrize("kind, section, key, value, code, message", cases())
def test_single_fault_message(tmp_path, capsys, kind, section, key, value, code, message):
    doc = base_doc(kind)
    node = doc
    for part in filter(None, section.split(".")):
        node = node[part]
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["snapshot", str(path), "--out", str(tmp_path / "table.csv")])
    err = capsys.readouterr().err
    assert rc == code
    assert err == (f"error: {path}: {message}\n" if code else "")


#: (axis, error line) of sweep axes rejected before any point runs.
AXIS_CASES = [
    ("system.gamma_e:-1e308:1e308:3",
     "axis system.gamma_e: spacing 3 values from -1e+308 to 1e+308 overflows "
     "to non-finite values"),
    ("system.gamma_e:0:1:1", "axis system.gamma_e: count must be >= 2"),
    ("system.gamma_e:0:1:3:log",
     "axis system.gamma_e: log spacing requires positive bounds"),
]


@pytest.mark.parametrize(
    "axis, message", AXIS_CASES, ids=[axis for axis, _ in AXIS_CASES]
)
def test_sweep_axis_message(tmp_path, capsys, axis, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base_doc("gaussian")), encoding="utf-8")
    table = tmp_path / "table.csv"
    rc = main(["sweep", str(path), "--axis", axis, "--reduce", "maxP",
               "--out", str(table)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not table.exists()
