"""Independent runs as one batch: ``snapshot_batch`` and ``final_states``
give each run bitwise what it gives alone, failures included, and the
commands built on them (``validate``, ``sweep``) write the bytes they write
when every run goes alone.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nads import cli, nads_core, tdse, validation
from nads.cli import main
from nads.errors import NumericalError
from nads.field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import snapshot_batch, snapshot_series
from nads.scenario import load_shipped, shipped_path, with_axis_values
from nads.tdse import Trajectory, evolve, final_states

from test_scenario_cli import child_env, write_doc

DAMPING = "ValidationError: damping rates must be >= 0, got gamma_g=0.02, gamma_e=-0.05"

#: Commands whose every run goes through a batch, and texts their output holds.
COMMANDS = {
    "validate-json": (["validate", "--json"], ['"passed": true']),
    # Two axes, with the rows of negative damping failing by name.
    "sweep-maxP": (["sweep", "sech-damped", "--axis", "system.gamma_e:-0.05:0.3:8",
                    "--axis", "field.envelope.omega0:0.5:2:6", "--reduce", "maxP"], [DAMPING]),
    # The points accept n_sub 2, 4 and 8: three passes of the batch.
    "sweep-finalPe": (["sweep", "sech-damped", "--axis", "system.gamma_e:-0.05:0.3:8",
                       "--axis", "field.envelope.omega0:0.5:2:6", "--reduce", "finalPe"],
                      [DAMPING]),
    # The rows for tau 5 and 10 break the scenario's tau/400 step rule.
    "sweep-step-rule": (["sweep", "sech-damped", "--axis", "field.envelope.tau:5:20:4",
                         "--reduce", "maxP"],
                        ["ValidationError: grid.step (0.0375) exceeds tau/400 (0.0125) "
                         "for the pulsed envelope"]),
    # A log axis, whose geomspace values are the point documents' omega0,
    # and a failing row written as null cells.
    "sweep-json-log": (["sweep", "sech-damped", "--axis", "system.gamma_e:-0.05:0.3:6",
                        "--axis", "field.envelope.omega0:0.5:2:4:log", "--reduce", "finalPe",
                        "--json"],
                       [DAMPING, '"finalPe": [\n' + '      null,\n' * 4,
                        '"field.envelope.omega0": [\n      0.5,\n      0.79370052598409']),
}


def snapshots_alone(runs, grid):
    """``snapshot_batch`` with every run evaluated alone."""
    return [series_alone(params, field, grid) for params, field in runs]


def final_states_alone(runs, grid, init="ground", frame="rotating", rtol=1e-10, atol=1e-12):
    """``final_states`` with every run integrated alone by ``evolve``."""
    out = []
    for params, field in runs:
        try:
            traj = evolve(params, field, grid, init, frame, rtol, atol)
        except NumericalError as exc:
            out.append(exc)
            continue
        out.append(Trajectory(grid=traj.grid[-1:], c_g=traj.c_g[-1:], c_e=traj.c_e[-1:],
                              norm=traj.norm[-1:], frame=frame, n_sub=traj.n_sub,
                              attempts=traj.attempts))
    return out


@pytest.mark.parametrize("name", COMMANDS)
def test_command_bytes_are_the_runs_alone(name, monkeypatch, capsys):
    argv, texts = COMMANDS[name]
    if argv[0] == "sweep":
        argv = [argv[0], str(shipped_path(argv[1])), *argv[2:]]
    assert main(argv) == 0
    batched = capsys.readouterr().out
    assert all(text in batched for text in texts)
    for module in (cli, validation):
        monkeypatch.setattr(module, "snapshot_batch", snapshots_alone)
    for module in (cli, tdse):
        monkeypatch.setattr(module, "final_states", final_states_alone)
    assert main(argv) == 0
    assert capsys.readouterr().out == batched


def outcome(result):
    """A run's failure as its type, message and grid index; a result that
    is no failure as itself, which compares unequal to any failure."""
    if isinstance(result, NumericalError):
        return type(result).__name__, str(result), result.grid_index
    return result


def same_series(batched, alone) -> bool:
    names = ["omega", "log_deriv", "phi", "dphi", "delta_tilde", "d_delta_tilde",
             "omega_tilde", "d_omega_tilde", "lambda1", "lambda2", "lambda_t1",
             "lambda_t2", "cos_half", "sin_half", "omega_G", "omega_E"]
    return (
        all(getattr(batched, n).tobytes() == getattr(alone, n).tobytes() for n in names)
        and all(batched.branch_log[k].tobytes() == alone.branch_log[k].tobytes()
                for k in alone.branch_log)
        and (batched.sign_delta, batched.delta) == (alone.sign_delta, alone.delta)
    )


def series_alone(params, field, grid):
    try:
        return snapshot_series(params, field, grid)
    except NumericalError as exc:
        return exc


def trajectory_alone(params, field, grid, init, frame, rtol):
    try:
        return evolve(params, field, grid, init, frame, rtol, 1e-12)
    except NumericalError as exc:
        return exc


def check_batch(runs, grid, init="ground", frame="rotating", rtol=1e-8):
    """Each run of both batches against the run alone."""
    for batched, (params, field) in zip(snapshot_batch(runs, grid), runs):
        alone = series_alone(params, field, grid)
        if isinstance(alone, NumericalError):
            assert outcome(batched) == outcome(alone)
        else:
            assert same_series(batched, alone)
            assert not batched.omega_E.flags.writeable
            assert not batched.branch_log["sin_half"].flags.writeable
    for batched, (params, field) in zip(final_states(runs, grid, init, frame, rtol, 1e-12),
                                        runs):
        alone = trajectory_alone(params, field, grid, init, frame, rtol)
        if isinstance(alone, NumericalError):
            assert outcome(batched) == outcome(alone)
            continue
        assert np.array_equal(batched.grid, alone.grid[-1:])
        for name in ("c_g", "c_e", "norm"):
            assert getattr(batched, name).tobytes() == getattr(alone, name)[-1:].tobytes()
        assert (batched.n_sub, batched.attempts) == (alone.n_sub, alone.attempts)


@st.composite
def runs(draw):
    """A system and field of any envelope kind, chirped and damped; about
    one in four fails: a Gaussian that underflows in its wing, a chirp
    whose rate overflows everywhere or only late on the grid, or a
    coupling too fast for the pass limit."""
    kind = draw(st.sampled_from(["constant", "gaussian", "sech"]))
    omega0 = draw(st.floats(0.05, 3.0))
    failure = draw(st.sampled_from([None] * 12 + ["wing", "chirp", "late chirp", "fast"]))
    if failure == "fast":
        omega0 = 1e100
    if failure == "wing":
        envelope = GaussianEnvelope(omega0=omega0, t_center=-3.0, tau=draw(st.floats(0.2, 0.5)))
    elif kind == "constant":
        envelope = ConstantEnvelope(omega0)
    else:
        cls = GaussianEnvelope if kind == "gaussian" else SechEnvelope
        envelope = cls(omega0=omega0, t_center=draw(st.floats(-2.0, 2.0)),
                       tau=draw(st.floats(0.5, 4.0)))
    phase = Chirp(phi0=draw(st.sampled_from([0.0, 0.4])),
                  beta=draw(st.sampled_from([0.0, 0.0, 0.3, -0.05])))
    if failure == "chirp":
        phase = Chirp(beta=1e308)
    elif failure == "late chirp":
        phase = Chirp(beta=1e154, t_center=-3.0)
    params = SystemParams(
        omega_g=0.0, omega_e=5.0, mu=draw(st.sampled_from([1.0, 1.5])),
        gamma_g=draw(st.sampled_from([0.0, 0.02])),
        gamma_e=draw(st.sampled_from([0.0, 0.1, 0.3])),
    )
    field = FieldModel(carrier_omega=draw(st.floats(4.0, 6.0)), envelope=envelope,
                       phase=phase)
    return params, field


@given(batch=st.lists(runs(), min_size=1, max_size=6), points=st.integers(2, 60),
       init=st.sampled_from(["ground", "excited"]),
       frame=st.sampled_from(["rotating", "rotating", "lab"]),
       rtol=st.sampled_from([1e-6, 1e-8]),
       systems=st.lists(st.tuples(st.sampled_from([0.25, 1.0, 1.5, 3.0]),
                                  st.sampled_from([0.0, 0.02]),
                                  st.sampled_from([0.0, 0.1, 0.3])), max_size=3))
@settings(max_examples=40, deadline=None)
def test_batched_runs_are_the_runs_alone(batch, points, init, frame, rtol, systems):
    grid = np.linspace(-3.0, 3.0, points)
    # A run repeated in the batch shares its coupling samples, and so do
    # runs on a rebuilt equal field that differ in mu and damping.
    params, field = batch[0]
    rebuilt = replace(field, envelope=replace(field.envelope), phase=replace(field.phase))
    shared = [(replace(params, mu=mu, gamma_g=gamma_g, gamma_e=gamma_e), rebuilt)
              for mu, gamma_g, gamma_e in systems]
    check_batch(batch + batch[:1] + shared, grid, init, frame, rtol)


def test_branch_ambiguity_fails_only_its_run(monkeypatch):
    # With every step a tie, each run fails on omega_tilde at grid index 1;
    # a run failing earlier keeps its own error.
    monkeypatch.setattr(nads_core, "BRANCH_AMBIGUITY_RTOL", 2.0)
    params = SystemParams(omega_g=0.0, omega_e=5.0)
    field = FieldModel(carrier_omega=4.0, envelope=ConstantEnvelope(0.5))
    wing = FieldModel(carrier_omega=4.0,
                      envelope=GaussianEnvelope(omega0=1.0, t_center=50.0, tau=1.0))
    results = snapshot_batch([(params, field), (params, wing), (params, field)],
                             np.linspace(0.0, 1.0, 11))
    assert [type(r).__name__ for r in results] == [
        "BranchAmbiguity", "EnvelopeUnderflow", "BranchAmbiguity"]
    assert str(results[0]).startswith("nonadiabatic Rabi frequency: both roots")
    assert results[0].grid_index == 1 and str(results[0]) == str(results[2])


def sweep_points(name, path, values):
    scenario = load_shipped(name)
    points = [with_axis_values(scenario, [(path, value)]) for value in values]
    return [(p.system, p.field) for p in points], scenario.grid()


@pytest.mark.parametrize("name, path, values", [
    ("sech-chirped", "field.phase.beta", np.linspace(-0.2, 0.2, 8)),
    ("sech-damped", "system.gamma_e", np.linspace(0.0, 0.3, 8)),
    ("gaussian-chirped-damped", "field.envelope.omega0", np.linspace(0.5, 2.0, 8)),
])
def test_batches_of_many_points(name, path, values):
    # Batch arrays of 256 KiB and more, where NumPy reuses temporaries in
    # place; complex products must keep their operand order there.
    runs_, grid = sweep_points(name, path, values)
    check_batch(runs_, grid, rtol=load_shipped(name).integrator.rtol)


CHIRP_OVERFLOW = {
    "name": "chirp-overflow",
    "system": {"omega_g": 0.0, "omega_e": 5.0},
    "field": {"carrier_omega": 4.0, "envelope": {"kind": "constant", "omega0": 0.5},
              "phase": {"beta": 1e308}},
    "grid": {"t_start": 0.0, "t_end": 10.0, "step": 0.1},
}


class TestChirpOverflow:
    """A finite chirp whose rate overflows fails by name, without a
    RuntimeWarning (an error under pytest)."""

    @pytest.mark.parametrize("flags", [[], ["--compare"]], ids=["plain", "compare"])
    def test_evolve_exits_two_by_name(self, tmp_path, capsys, flags):
        out = tmp_path / "table.csv"
        rc = main(["evolve", write_doc(tmp_path, CHIRP_OVERFLOW), *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "numerical error: chirp rate |dphi/dt| on the grid is not finite: inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("reduce, error", [
        ("finalPe", "NonFiniteValue: chirp rate |dphi/dt| on the grid is not finite: inf"),
        ("maxP", "NonFiniteValue: nonadiabatic Rabi frequency radicand is not finite: "),
    ])
    def test_sweep_fills_the_error_cells(self, tmp_path, capsys, reduce, error):
        rc = main(["sweep", write_doc(tmp_path, CHIRP_OVERFLOW),
                   "--axis", "field.phase.beta:0:1e308:2", "--reduce", reduce, "--json"])
        assert rc == 0
        columns = json.loads(capsys.readouterr().out)["columns"]
        assert columns["error"][0] == "" and math.isfinite(columns[reduce][0])
        assert columns["error"][1].startswith(error) and columns[reduce][1] is None

    @pytest.mark.parametrize("argv, code", [
        (["snapshot"], 2),
        (["evolve", "--compare"], 2),
        (["sweep", "--axis", "system.gamma_e:0:0.1:2", "--reduce", "finalPe"], 0),
        (["sweep", "--axis", "system.gamma_e:0:0.1:2", "--reduce", "maxP"], 0),
    ], ids=["snapshot", "evolve-compare", "sweep-finalPe", "sweep-maxP"])
    def test_no_warning_reaches_stderr(self, tmp_path, argv, code):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from nads.cli import main; "
             "sys.exit(main(sys.argv[1:]))", argv[0], write_doc(tmp_path, CHIRP_OVERFLOW),
             *argv[1:], "--out", str(tmp_path / "table.csv")],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert "Warning" not in proc.stderr
