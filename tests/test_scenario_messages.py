"""Exact exit codes and error lines for single-fault scenario documents.

Each case changes one key of a valid document with a full ``system``,
``field``, envelope and ``phase`` and runs ``nads snapshot`` on it. A case
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
        "grid": {"t_start": 0.0, "t_end": 1.0, "step": 0.0025},
    }


def number_cases(section: str, key: str, required: bool, positive: bool):
    """Missing, null, string, bool and (for positive fields) 0 and -1."""
    path = f"{section}.{key}"
    cases = [
        (key, DROP, 1, f"missing required key '{key}' in {section}")
        if required else (key, DROP, 0, ""),
        (key, None, 1, f"{path} must be a number, got None"),
        (key, "1.0", 1, f"{path} must be a number, got '1.0'"),
        (key, True, 1, f"{path} must be a number, got True"),
        (key, float("nan"), 1, f"{path} must be a finite number, got nan"),
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
            table.append(pytest.param(
                kind, section, key, value, code, message,
                id=f"{kind}-{section}.{key}={label}",
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
         "field.phase.t_center must be a finite number, got nan"),
        ("bta", 0.1, 1, "unknown key 'bta' in field.phase; did you mean 'beta'?"),
    ]
    add("gaussian", "field.phase", phase)

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
