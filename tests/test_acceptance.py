"""Acceptance gate: ten release criteria, one test each.

Each test asserts exactly the contracted bound, so the -v report reads as
one pass/fail line per criterion. Shared series come from session fixtures;
everything else is computed here with fixed seeds.
"""

from __future__ import annotations

import json
import math

import numpy as np

from nads.cli import main
from nads.field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import snapshot_series
from nads.overlap_transitions import (
    amplitude_ratios,
    eg_overlap,
    ge_overlap,
    mixing_probability,
    norms,
    p_via_overlaps,
)
from nads.scenario import shipped_path
from nads.tdse import evolve, lz_oracle, lz_survival, propagate_fixed, rabi_oracle

from conftest import FLAGSHIP, SLOW_ADIABATIC


def test_criterion_01_trig_identity(shipped_series):
    """|COS^2 + SIN^2 - 1| < 1e-10 at every grid point of every scenario."""
    assert len(shipped_series) >= 6
    worst = 0.0
    for _, series in shipped_series.values():
        dev = np.max(np.abs(series.cos_half**2 + series.sin_half**2 - 1.0))
        worst = max(worst, float(dev))
    assert worst < 1e-10


def test_criterion_02_adiabatic_theorem():
    """P < 1e-12 pointwise for 10 random static undamped unchirped draws."""
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(10):
        omega0 = float(rng.uniform(0.1, 4.0))
        delta = float(rng.uniform(0.2, 5.0)) * (1 if rng.uniform() < 0.5 else -1)
        params = SystemParams(omega_g=0.0, omega_e=6.0)
        field = FieldModel(
            carrier_omega=6.0 - delta, envelope=ConstantEnvelope(omega0)
        )
        series = snapshot_series(params, field, np.linspace(0.0, 5.0, 11))
        p = mixing_probability(series.sin_half, series.cos_half)
        worst = max(worst, float(np.max(p)))
    assert worst < 1e-12


def test_criterion_03_bound_and_microreversibility():
    """0 <= P <= 1 on 1e4 fuzzed mixing pairs; forward equals reverse."""
    rng = np.random.default_rng(31337)
    mag = 10.0 ** rng.uniform(-3, 3, size=(10_000, 2))
    ang = rng.uniform(0.0, 2.0 * math.pi, size=(10_000, 2))
    pairs = mag * np.exp(1j * ang)
    forward = mixing_probability(pairs[:, 0], pairs[:, 1])
    assert np.all((0.0 <= forward) & (forward <= 1.0))
    assert np.array_equal(forward, mixing_probability(pairs[:, 1], pairs[:, 0]))


def test_criterion_04_exponential_cancellation(shipped_series):
    """Pointwise P vs overlap-route P within 1e-9 on all scenarios."""
    worst = 0.0
    for _, series in shipped_series.values():
        direct = mixing_probability(series.sin_half, series.cos_half)
        routed = p_via_overlaps(series)
        worst = max(worst, float(np.max(np.abs(direct - routed))))
    assert worst < 1e-9


def test_criterion_05_overlap_hermiticity_positivity(shipped_series):
    """gg, ee real positive; <G|E> = conj(<E|G>) within 1e-12."""
    worst = 0.0
    for _, series in shipped_series.values():
        for norm in norms(series):
            assert norm.dtype == np.float64 and np.all(norm > 0.0)
        dev = np.abs(ge_overlap(series) - np.conj(eg_overlap(series)))
        worst = max(worst, float(np.max(dev)))
    assert worst < 1e-12


def test_criterion_06_orthogonality_switch(shipped_series):
    """|<E|G>| < 1e-12 without nonadiabatic factors; > 1e-6 at the chirped
    damped pulse center."""
    _, static = shipped_series["constant-detuned"]
    worst = float(np.max(np.abs(eg_overlap(static))))
    assert worst < 1e-12
    _, flagship = shipped_series[FLAGSHIP]
    center = int(np.argmin(np.abs(flagship.grid)))
    assert abs(flagship.grid[center]) == 0.0
    assert abs(eg_overlap(flagship)[center]) > 1e-6


def test_criterion_07_integrator_oracles():
    """Rabi pi pulse < 1e-8; free decay < 1e-8; Landau-Zener < 1e-3."""
    params = SystemParams(omega_g=0.0, omega_e=5.0)
    field = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(0.2))
    grid = np.linspace(0.0, math.pi / 0.2, 201)
    traj = evolve(params, field, grid, init="ground", frame="rotating")
    _, p_e = rabi_oracle(0.2, float(grid[-1]))
    assert abs(abs(traj.c_e[-1]) ** 2 - p_e) < 1e-8

    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_e=0.5)
    field = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(1e-20))
    traj = evolve(params, field, np.linspace(0.0, 2.0, 101),
                  init="excited", frame="rotating")
    assert abs(abs(traj.c_e[-1]) ** 2 - math.exp(-1.0)) < 1e-8

    for coupling in (0.1, 0.25, 0.5):
        err = abs(lz_survival(coupling, 1.0) - lz_oracle(coupling, 1.0))
        assert err < 1e-3


def test_criterion_08_analytic_vs_numeric_ratio(shipped_series):
    """Closed-form |c_e/c_g| within 5% of the TDSE ratio at pulse center."""
    scenario, series = shipped_series[SLOW_ADIABATIC]
    traj = evolve(
        scenario.system, scenario.field, scenario.grid(),
        init="ground", frame="rotating",
        rtol=scenario.rtol, atol=scenario.atol,
    )
    center = int(np.argmin(np.abs(series.grid)))
    ratio_tdse = abs(traj.c_e[center] / traj.c_g[center])
    ratio_model = abs(amplitude_ratios(series, "ground")[center])
    assert abs(ratio_tdse - ratio_model) / ratio_tdse < 0.05


def test_criterion_09_derivative_hygiene_and_rk4_order():
    """Analytic derivatives match central differences within 1e-6 relative
    on 1e3 random points; substep halving cuts RK4 error ~16x."""
    rng = np.random.default_rng(90210)
    times = rng.uniform(-8.0, 8.0, size=1000)
    h = 1e-5
    worst = 0.0
    envelopes = [
        GaussianEnvelope(omega0=1.7, t_center=0.3, tau=6.0),
        SechEnvelope(omega0=0.9, t_center=-0.8, tau=5.0),
        ConstantEnvelope(omega0=1.1),
    ]
    for env in envelopes:
        d_omega = env.omega(times) * env.log_deriv(times)
        d_omega_fd = (env.omega(times + h) - env.omega(times - h)) / (2 * h)
        scale = np.maximum(np.abs(d_omega), np.abs(env.omega(times)))
        worst = max(worst, float(np.max(np.abs(d_omega - d_omega_fd) / scale)))
    field = FieldModel(
        carrier_omega=2.0,
        envelope=envelopes[0],
        phase=Chirp(phi0=0.4, beta=0.03, t_center=-0.5),
    )
    dphi_fd = (field.phi(times + h) - field.phi(times - h)) / (2 * h)
    scale = np.maximum(np.abs(field.dphi(times)), 1.0)
    worst = max(worst, float(np.max(np.abs(field.dphi(times) - dphi_fd) / scale)))
    assert worst < 1e-6

    params = SystemParams(omega_g=0.0, omega_e=5.0)
    rabi = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(2.0))
    grid = np.linspace(0.0, 1.0, 11)

    def endpoint(n_sub):
        traj = propagate_fixed(params, rabi, grid, n_sub=n_sub)
        return traj.c_g[-1], traj.c_e[-1]

    ref = endpoint(64)
    err = [
        max(abs(g - ref[0]), abs(e - ref[1]))
        for g, e in (endpoint(1), endpoint(2))
    ]
    assert 12.0 < err[0] / err[1] < 20.0


def test_criterion_10_byte_determinism(tmp_path, capsys):
    """Every CLI command repeated on shipped scenarios is byte-identical."""
    from nads.scenario import list_shipped

    for name in list_shipped():
        outs = [tmp_path / f"{name}-{i}.csv" for i in (0, 1)]
        for out in outs:
            assert main(["snapshot", str(shipped_path(name)),
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    for name in ("constant-rabi-resonant", "lz-linear-sweep", FLAGSHIP):
        outs = [tmp_path / f"{name}-evolve-{i}.csv" for i in (0, 1)]
        for out in outs:
            assert main(["evolve", str(shipped_path(name)),
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    sweep_args = [
        "sweep", str(shipped_path("constant-detuned")),
        "--axis", "field.envelope.omega0:1:2:3",
        "--reduce", "maxP",
    ]
    outs = [tmp_path / f"sweep-{i}.csv" for i in (0, 1)]
    for out in outs:
        assert main(sweep_args + ["--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()

    reports = []
    for _ in (0, 1):
        assert main(["validate", "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert all(entry["passed"] for entry in json.loads(reports[0]))
