"""Amplitude-equation integrator: RHS conventions, closed-form oracles,
the rotating-wave approximation against a scalar lab-frame RK4, convergence
order, agreement of the block propagator with a scalar RK4 loop, the
work-efficient expansion against the Hillis-Steele one it replaced, the
starting rate against the one with the chirp unweighted, and the predictive
substep controller against the plain doubling controller."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nads
from nads import tdse
from nads.cli import main
from nads.errors import StepUnderflow, ToleranceUnreachable, ValidationError
from nads.field_model import (
    DEFAULT_ATOL,
    DEFAULT_INIT,
    DEFAULT_RTOL,
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import detuning, uniform_grid
from nads.scenario import list_shipped, load_shipped, scenario_from_dict
from nads.tdse import (
    _BLOCK_SUBSTEPS,
    MAX_PASS_SUBSTEPS,
    Trajectory,
    evolve,
    lz_oracle,
    lz_survivals,
    rabi_oracle,
)

from reference import fixed_pass, rhs, rz_oracle
from test_scenario_cli import read_table, write_doc

OFF = ConstantEnvelope(1e-20)  # coupling far below every tolerance in use


def tolerances(sc) -> dict:
    """The scenario's tolerances, as keyword arguments of ``evolve``."""
    return {"rtol": sc.integrator.rtol, "atol": sc.integrator.atol}


def resonant(omega0: float, omega_e: float = 5.0) -> tuple[SystemParams, FieldModel]:
    params = SystemParams(omega_g=0.0, omega_e=omega_e)
    field = FieldModel(carrier_omega=omega_e, envelope=ConstantEnvelope(omega0))
    return params, field


class TestRhs:
    def test_field_off_diagonal_evolution(self):
        params = SystemParams(omega_g=2.0, omega_e=5.0, gamma_g=0.3)
        field = FieldModel(carrier_omega=3.0, envelope=OFF)
        d_g, d_e = rhs(0.7, (1.0, 0.0), params, field, frame="lab")
        assert d_g == -0.15 - 2.0j
        assert abs(d_e) < 1e-15

    def test_stationary_ground_state(self):
        params = SystemParams(omega_g=0.0, omega_e=5.0)
        field = FieldModel(carrier_omega=3.0, envelope=OFF)
        d_g, d_e = rhs(1.3, (1.0, 0.0), params, field, frame="lab")
        assert d_g == 0.0
        assert abs(d_e) < 1e-15

    def test_rotating_half_coupling_convention(self):
        params, field = resonant(0.2)
        d_g, d_e = rhs(0.0, (1.0, 0.0), params, field, frame="rotating")
        assert d_e == 0.1j
        assert d_g == 0.0

    def test_lab_coupling_sign(self):
        params, field = resonant(0.4)
        d_g, _ = rhs(0.0, (0.0, 1.0), params, field, frame="lab")
        assert d_g == pytest.approx(-0.4j, rel=1e-15)

    def test_rotating_detuning_and_damping(self):
        params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_e=0.4)
        field = FieldModel(carrier_omega=4.5, envelope=OFF)
        _, d_e = rhs(0.0, (0.0, 1.0), params, field, frame="rotating")
        assert d_e == pytest.approx(-0.5j - 0.2, rel=1e-15)


class TestClosedFormOracles:
    def test_rabi_oracle_values(self):
        assert rabi_oracle(0.2, 0.0) == (1.0, 0.0)
        p_g, p_e = rabi_oracle(0.2, math.pi / 0.2)
        assert p_e == pytest.approx(1.0, abs=1e-15)
        p_g, p_e = rabi_oracle(0.2, math.pi / 0.4)
        assert p_g == pytest.approx(0.5, abs=1e-15)
        assert p_e == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("omega0, t, message", [
        (0.0, 1.0, "rabi_oracle.omega0 must be positive, got 0.0"),
        (-0.2, 1.0, "rabi_oracle.omega0 must be positive, got -0.2"),
        (math.nan, 1.0, "rabi_oracle.omega0 must be finite, got nan"),
        (math.inf, 1.0, "rabi_oracle.omega0 must be finite, got inf"),
        (0.2, math.inf, "rabi_oracle.t must be finite, got inf"),
        (0.2, math.nan, "rabi_oracle.t must be finite, got nan"),
        (1e308, 10.0, "rabi_oracle.omega0*t/2 must be finite, got inf"),
    ], ids=["0.0", "-0.2", "nan", "inf", "t-inf", "t-nan", "phase-overflow"])
    def test_rabi_oracle_validation(self, omega0, t, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            rabi_oracle(omega0, t)

    def test_lz_oracle_values(self):
        assert lz_oracle(0.0, 1.0) == 1.0
        assert lz_oracle(100.0, 1.0) == 0.0
        assert lz_oracle(0.25, 1.0) == pytest.approx(0.6752319066557772, rel=1e-12)
        assert lz_oracle(0.1, 1.0) == pytest.approx(0.9391013674242926, rel=1e-12)
        assert lz_oracle(0.5, 1.0) == pytest.approx(0.2078795763507619, rel=1e-12)
        assert lz_oracle(0.3, -2.0) == lz_oracle(0.3, 2.0)

    def test_lz_oracle_validation(self):
        for coupling, sweep_rate, message in [
            (0.1, 0.0, "lz_oracle.sweep_rate must be nonzero, got 0.0"),
            (0.1, -0.0, "lz_oracle.sweep_rate must be nonzero, got -0.0"),
            (0.1, math.nan, "lz_oracle.sweep_rate must be finite, got nan"),
            (0.1, -math.inf, "lz_oracle.sweep_rate must be finite, got -inf"),
            (math.inf, 1.0, "lz_oracle.coupling must be finite, got inf"),
            (math.nan, 1.0, "lz_oracle.coupling must be finite, got nan"),
        ]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                lz_oracle(coupling, sweep_rate)

    def test_rz_oracle_values(self):
        assert rz_oracle(0.5, 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)  # pulse area pi
        assert rz_oracle(1.0, 2.0, 0.0) == pytest.approx(0.0, abs=1e-15)  # area 2 pi
        assert rz_oracle(0.3, 2.0, 0.4) == rz_oracle(0.3, 2.0, -0.4)
        expected = math.sin(0.3 * math.pi) ** 2 / math.cosh(0.4 * math.pi) ** 2
        assert rz_oracle(0.3, 2.0, 0.4) == pytest.approx(expected, rel=1e-15)

    def test_rz_oracle_validation(self):
        with pytest.raises(ValueError):
            rz_oracle(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rz_oracle(0.5, -1.0, 0.0)


class TestEvolveOracles:
    def test_resonant_pi_pulse(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 201)
        traj = evolve(params, field, grid, init="ground")
        assert abs(abs(traj.c_e[-1]) ** 2 - 1.0) < 1e-8

    def test_pi_pulse_from_excited(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 201)
        traj = evolve(params, field, grid, init="excited")
        assert abs(abs(traj.c_g[-1]) ** 2 - 1.0) < 1e-8

    def test_lab_frame_pi_pulse(self):
        # Counter-rotating terms allowed at the (Omega/omega)^2 scale.
        params, field = resonant(0.2)
        lab = lab_rk4(params, field, np.linspace(0.0, math.pi / 0.2, 201))
        assert abs(abs(lab[-1, 1]) ** 2 - 1.0) < 1e-2

    def test_population_tracks_rabi_oracle_pointwise(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 201)
        traj = evolve(params, field, grid, init="ground")
        expected = np.array([rabi_oracle(0.2, t)[1] for t in grid])
        assert np.max(np.abs(np.abs(traj.c_e) ** 2 - expected)) < 1e-8
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-8

    @pytest.mark.parametrize("omega0, tau, delta", [
        (0.5, 2.0, 0.0), (0.3, 2.0, 0.4), (0.8, 1.5, -0.7),
    ])
    def test_sech_pulse_matches_rosen_zener(self, omega0, tau, delta):
        params = SystemParams(omega_g=0.0, omega_e=5.0)
        field = FieldModel(
            carrier_omega=5.0 - delta, envelope=SechEnvelope(omega0=omega0, tau=tau)
        )
        grid = np.linspace(-40.0 * tau, 40.0 * tau, 1601)
        traj = evolve(params, field, grid, init="ground")
        p_e = abs(traj.c_e[-1]) ** 2
        assert abs(p_e - rz_oracle(omega0, tau, delta)) < 1e-12

    def test_field_free_decay(self):
        params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_e=0.5)
        field = FieldModel(carrier_omega=5.0, envelope=OFF)
        grid = np.linspace(0.0, 2.0, 101)
        traj = evolve(params, field, grid, init="excited")
        assert abs(abs(traj.c_e[-1]) ** 2 - math.exp(-1.0)) < 1e-8
        assert np.max(np.abs(traj.norm - np.exp(-0.5 * grid))) < 1e-8

    def test_ground_decay_law(self):
        params = SystemParams(omega_g=1.0, omega_e=5.0, gamma_g=0.25)
        field = FieldModel(carrier_omega=4.0, envelope=OFF)
        grid = np.linspace(0.0, 4.0, 81)
        traj = evolve(params, field, grid, init="ground")
        assert np.max(np.abs(traj.norm - np.exp(-0.25 * grid))) < 1e-8

    def test_frame_consistency(self):
        omega0, carrier = 0.3, 5.0
        params, field = resonant(omega0, omega_e=carrier)
        grid = np.linspace(0.0, math.pi / omega0, 301)
        rot, lab = evolve(params, field, grid), lab_rk4(params, field, grid)
        bound = (omega0 / carrier) ** 2 + 1e-6
        assert abs(abs(rot.c_e[-1]) ** 2 - abs(lab[-1, 1]) ** 2) < bound
        assert abs(abs(rot.c_g[-1]) ** 2 - abs(lab[-1, 0]) ** 2) < bound

    def test_trajectory_metadata(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        traj = evolve(params, field, grid)
        assert isinstance(traj, Trajectory)
        assert traj.n_sub >= 1
        assert traj.c_g[0] == 1.0 and traj.c_e[0] == 0.0
        assert np.array_equal(traj.grid, grid)
        assert traj.grid is not grid

    def test_two_point_grid(self):
        params, field = resonant(0.2)
        traj = evolve(params, field, np.array([0.0, 0.5]))
        assert len(traj.c_g) == 2


def lab_rk4(params, field, grid):
    """States (c_g, c_e) of a ground start in the lab frame, as shape
    (len(grid), 2): :func:`reference_rk4` on the lab-frame ``rhs`` at 16
    substeps per output interval, where the carrier of every lab-frame test
    here turns at most 0.08 rad a substep."""
    return reference_rk4(params, field, grid, "ground", "lab", 16)


def counter_rotating_gap(omega: float, omega0: float) -> float:
    """The largest |Pe_lab - Pe_rot| over one Rabi period 2 pi / omega0 of a
    resonant constant drive at carrier omega, on 201 points."""
    params, field = resonant(omega0, omega_e=omega)
    grid = np.linspace(0.0, 2.0 * math.pi / omega0, 201)
    lab, rot = lab_rk4(params, field, grid), evolve(params, field, grid)
    return float(np.max(np.abs(np.abs(lab[:, 1]) ** 2 - np.abs(rot.c_e) ** 2)))


class TestCounterRotatingTerm:
    """The lab frame keeps the counter-rotating term that the package's
    rotating frame drops. Over one Rabi period of a resonant drive the two
    frames' excited populations differ by about Omega / (4 omega), that
    term's first-order amplitude (Bloch and Siegert, Phys. Rev. 57:522,
    1940)."""

    @pytest.mark.parametrize("omega, omega0, ratio", [
        (5.0, 0.5, 0.989), (10.0, 0.5, 0.967), (20.0, 0.5, 0.958), (5.0, 1.0, 1.080),
    ])
    def test_gap_follows_the_first_order_amplitude(self, omega, omega0, ratio):
        # Each ratio is pinned within 2% of its measured value.
        gap = counter_rotating_gap(omega, omega0)
        assert gap / (omega0 / (4.0 * omega)) == pytest.approx(ratio, rel=0.02)

    def test_gap_depends_on_omega_over_omega0_alone(self):
        # (10, 1) is (5, 0.5) with time halved, a power-of-two rescaling
        # that leaves every rounding as it was.
        assert counter_rotating_gap(10.0, 1.0) == counter_rotating_gap(5.0, 0.5)


class TestConvergence:
    def test_fourth_order_substep_halving(self):
        params, field = resonant(2.0)
        grid = np.linspace(0.0, 1.0, 11)

        def endpoint(n_sub):
            traj = fixed_pass(params, field, grid, n_sub=n_sub)
            return traj.c_g[-1], traj.c_e[-1]

        ref = endpoint(64)
        errs = []
        for n_sub in (1, 2):
            g, e = endpoint(n_sub)
            errs.append(max(abs(g - ref[0]), abs(e - ref[1])))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_doubling_controller_meets_tolerance(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 51)
        coarse = evolve(params, field, grid, rtol=1e-6, atol=1e-9)
        fine = fixed_pass(params, field, grid, n_sub=8 * coarse.n_sub)
        assert abs(coarse.c_e[-1] - fine.c_e[-1]) < 1e-6


class TestValidationAndFailure:
    def test_step_underflow_raises_before_propagating(self):
        # A detuning of 1e15 on a grid step of 5e-4.
        params = SystemParams(omega_g=0.0, omega_e=1e15 + 1.0)
        field = FieldModel(carrier_omega=1.0, envelope=ConstantEnvelope(1.0))
        grid = np.linspace(0.0, 1e-3, 3)
        with pytest.raises(StepUnderflow, match="^a pass at 2500000000000 substeps"):
            evolve(params, field, grid)

    def test_unreachable_tolerance_stops_by_name(self):
        params = SystemParams(omega_g=0.0, omega_e=5.0)
        field = FieldModel(carrier_omega=4.0, envelope=ConstantEnvelope(0.5))
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ToleranceUnreachable, match="did not shrink"):
            evolve(params, field, grid, rtol=1e-300, atol=1e-300)
        assert issubclass(ToleranceUnreachable, StepUnderflow)

    def test_growing_difference_stops_doubling(self, monkeypatch):
        # Truncation error 1e-6 n^-4 under a rounding error that grows as
        # 1e-14 n and alternates in sign: the pair difference bottoms out
        # between 64 and 128 substeps, so the pass at 256 is the last.
        calls = []

        def fake(runs, grid, n_sub):
            sign = (-1) ** int(math.log2(n_sub))
            calls.append(n_sub)
            return fake_pass(grid, 0.5 + 1e-6 / n_sub**4 + sign * 1e-14 * n_sub)

        use_passes(monkeypatch, fake)
        params, field = resonant(0.2)
        with pytest.raises(ToleranceUnreachable,
                           match="at n_sub 256 did not shrink from .* at n_sub 128"):
            evolve(params, field, np.linspace(0.0, 1.0, 5), rtol=1e-20, atol=1e-20)
        assert calls == [1, 2, 64, 128, 256]

    def test_grid_validation(self):
        params, field = resonant(0.2)
        with pytest.raises(ValueError, match="uniformly increasing"):
            evolve(params, field, np.array([0.0, 0.1, 0.3]))
        with pytest.raises(ValueError, match="uniformly increasing"):
            evolve(params, field, np.array([0.0, -0.1, -0.2]))
        with pytest.raises(ValueError, match="at least 2"):
            evolve(params, field, np.array([0.0]))

    @pytest.mark.parametrize("grid, message", [
        (np.array([0.0, 1.0, 3.0]), "grid must be uniformly increasing"),
        (np.array([0.0]), "grid must be one-dimensional with at least 2 points"),
        (np.array([[0.0, 1.0], [2.0, 3.0]]),
         "grid must be one-dimensional with at least 2 points"),
    ], ids=["non-uniform", "one-point", "2-D"])
    @pytest.mark.parametrize("call", [
        lambda run, grid: nads.evolve(*run, grid),
        lambda run, grid: tdse.final_states([run], grid),
        lambda run, grid: nads.snapshot_series(*run, grid),
    ], ids=["evolve", "final_states", "snapshot_series"])
    def test_bad_grid_is_a_nads_error(self, call, grid, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(resonant(0.2), grid)

    @pytest.mark.parametrize("tol, rule", [(math.nan, "finite"), (math.inf, "finite"),
                                           (0.0, "positive"), (-1e-9, "positive")])
    def test_tolerance_validation(self, tol, rule):
        # Both entry points check a tolerance as Integrator checks its fields.
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        for name in ("rtol", "atol"):
            message = "^" + re.escape(f"Integrator.{name} must be {rule}, got {tol}") + "$"
            with pytest.raises(ValidationError, match=message):
                evolve(params, field, grid, **{name: tol})
            with pytest.raises(ValidationError, match=message):
                tdse.final_states([(params, field)], grid, **{name: tol})

    def test_every_entry_point_rejects_an_unknown_initial_state(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="init"):
            evolve(params, field, grid, init="both")
        with pytest.raises(ValueError, match="init"):
            tdse.final_states([(params, field)], grid, init="both")

    def test_entry_points_take_no_frame(self):
        # The integrator has one frame, the rotating one.
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(TypeError, match="frame"):
            evolve(params, field, grid, frame="rotating")
        with pytest.raises(TypeError, match="frame"):
            tdse.final_states([(params, field)], grid, frame="rotating")


def reference_rk4(params, field, grid, init, frame, n_sub):
    """Classic RK4 on ``rhs``, one substep at a time, in scalar arithmetic."""

    def f(t, y):
        return rhs(t, y, params, field, frame)

    def shifted(y, s, k):
        return (y[0] + s * k[0], y[1] + s * k[1])

    h = (grid[1] - grid[0]) / n_sub
    y = (1.0 + 0j, 0j) if init == "ground" else (0j, 1.0 + 0j)
    out = [y]
    j = 0
    for _ in range(len(grid) - 1):
        for _ in range(n_sub):
            t = grid[0] + j * h
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, shifted(y, 0.5 * h, k1))
            k3 = f(t + 0.5 * h, shifted(y, 0.5 * h, k2))
            k4 = f(t + h, shifted(y, h, k3))
            y = tuple(
                y[i] + h / 6.0 * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                for i in range(2)
            )
            j += 1
        out.append(y)
    return np.array(out)


def chirped_pulse(envelope=GaussianEnvelope):
    """Damped, detuned system under a chirped pulse, Gaussian by default."""
    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_g=0.02, gamma_e=0.1)
    field = FieldModel(
        carrier_omega=4.6,
        envelope=envelope(omega0=1.5, t_center=0.0, tau=3.0),
        phase=Chirp(phi0=0.2, beta=0.05, t_center=0.0),
    )
    return params, field


class TestBlockPropagator:
    """A fixed pass against the scalar loop across block seams."""

    @pytest.mark.parametrize("envelope", [GaussianEnvelope, SechEnvelope], ids=["gauss", "sech"])
    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("n_sub", [1, 3, 41, _BLOCK_SUBSTEPS + 3])
    def test_matches_scalar_rk4(self, envelope, init, n_sub):
        params, field = chirped_pulse(envelope)
        # Over three blocks of substeps; n_sub > block also splits intervals.
        intervals = max(3, math.ceil(3.5 * _BLOCK_SUBSTEPS / n_sub))
        grid = np.linspace(-9.0, 9.0, intervals + 1)
        traj = fixed_pass(params, field, grid, init, n_sub)
        ref = reference_rk4(params, field, grid, init, "rotating", n_sub)
        assert np.max(np.abs(traj.c_g - ref[:, 0])) < 1e-12
        assert np.max(np.abs(traj.c_e - ref[:, 1])) < 1e-12

    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("n_sub", [1, 3, 41, _BLOCK_SUBSTEPS + 3])
    def test_constant_coupling_matches_scalar_rk4(self, init, n_sub):
        # One row of step matrices serves every block.
        params, field = time_independent()
        intervals = max(3, math.ceil(3.5 * _BLOCK_SUBSTEPS / n_sub))
        grid = np.linspace(-9.0, 9.0, intervals + 1)
        traj = fixed_pass(params, field, grid, init, n_sub)
        ref = reference_rk4(params, field, grid, init, "rotating", n_sub)
        assert np.max(np.abs(traj.c_g - ref[:, 0])) < 1e-12
        assert np.max(np.abs(traj.c_e - ref[:, 1])) < 1e-12


def hillis_steele_states(intervals, start, block):
    """The expansion a pass ran before the work-efficient scan:
    Hillis-Steele prefix products over blocks of ``block`` rows, applied to
    the state carried across blocks."""
    rows = intervals.shape[-1]
    out = np.empty((2, rows + 1), dtype=complex)
    out[:, 0] = start
    for first in range(0, rows, block):
        m = intervals[..., first:first + block]
        shift = 1
        while shift < m.shape[-1]:
            m = np.concatenate((m[..., :shift], tdse._mul(m[..., shift:], m[..., :-shift])),
                               axis=-1)
            shift *= 2
        y = out[:, first]
        out[:, first + 1:first + 1 + m.shape[-1]] = m[:, 0] * y[0] + m[:, 1] * y[1]
    return out


def relative_error(states, ref):
    """Largest difference per grid point over the size of the reference
    state there."""
    diff = np.maximum(np.abs(states[0] - ref[0]), np.abs(states[1] - ref[1]))
    return float(np.max(diff / np.sqrt(np.abs(ref[0]) ** 2 + np.abs(ref[1]) ** 2)))


class TestExpansion:
    """The work-efficient scan against the Hillis-Steele expansion it
    replaced, and the controller's last state against the scan's last
    column."""

    @pytest.mark.parametrize("name", list_shipped())
    def test_accepted_pass_matches_hillis_steele(self, name):
        sc = load_shipped(name)
        traj = evolve(sc.system, sc.field, sc.grid(), sc.initial_state, **tolerances(sc))
        grid, _ = uniform_grid(sc.grid())
        start = tdse._start(sc.initial_state)
        intervals = tdse._build_pass(((sc.system, sc.field),), grid, traj.n_sub)[:, :, 0]
        states = tdse._expand(intervals, start)
        assert np.array_equal(states[0], traj.c_g) and np.array_equal(states[1], traj.c_e)
        block = max(1, _BLOCK_SUBSTEPS // traj.n_sub)
        assert relative_error(states, hillis_steele_states(intervals, start, block)) < 1e-13

    @pytest.mark.parametrize("envelope", [GaussianEnvelope, SechEnvelope], ids=["gauss", "sech"])
    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 63, 64, 65, 4095, 4096, 4097])
    def test_row_counts(self, envelope, init, rows):
        params, field = chirped_pulse(envelope)
        grid = np.linspace(-9.0, 9.0, rows + 1)
        self.check_pass(params, field, grid, init)

    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 63, 64, 65, 4095, 4096, 4097])
    def test_broadcast_intervals(self, init, rows):
        grid = np.linspace(-9.0, 9.0, rows + 1)
        intervals = self.check_pass(*time_independent(), grid, init)
        assert intervals.strides[-1] == 0

    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 64, 65, 399, 400, 4096, 4097])
    def test_broadcast_last_state_takes_one_product_per_pair(self, monkeypatch, init, rows):
        # Two runs whose interval propagators are broadcast along the rows:
        # every matrix product of their expansion, full or last column only,
        # multiplies one column, and the states are bitwise those of the
        # same stack built column by column.
        params, field = time_independent()
        runs = [(params, field), (SystemParams(omega_g=0.0, omega_e=4.9, gamma_e=0.3), field)]
        grid, _ = uniform_grid(np.linspace(-9.0, 9.0, rows + 1))
        start = tdse._start(init)
        intervals = tdse._build_pass(runs, grid, 2)
        assert intervals.strides[-1] == 0
        contiguous = np.ascontiguousarray(intervals)
        expected_last = tdse._expand_last(contiguous, start)
        expected = [tdse._expand(contiguous[:, :, i], start) for i in range(len(runs))]
        widths = []
        mul = tdse._mul

        def recording_mul(p, q):
            widths.append(p.shape[-1])
            return mul(p, q)

        monkeypatch.setattr(tdse, "_mul", recording_mul)
        last = tdse._expand_last(intervals, start)
        states = [tdse._expand(intervals[:, :, i], start) for i in range(len(runs))]
        assert last.shape == (2, 2)
        assert np.array_equal(last, expected_last)
        assert all(np.array_equal(a, b) for a, b in zip(states, expected))
        assert bool(widths) == (rows >= 2)
        assert all(width == 1 for width in widths)

    @staticmethod
    def check_pass(params, field, grid, init, n_sub=2):
        grid, _ = uniform_grid(grid)
        start = tdse._start(init)
        built = tdse._build_pass(((params, field),), grid, n_sub)
        intervals = built[:, :, 0]
        states = tdse._expand(intervals, start)
        ref = hillis_steele_states(intervals, start, len(grid))
        assert states.shape == (2, len(grid))
        assert np.array_equal(states[:, 0], start)
        assert relative_error(states, ref) < 1e-13
        # The last state the controller compares is the expansion's last
        # column bitwise.
        assert np.array_equal(tdse._expand_last(built, start), states[:, -1:])
        return intervals

    @pytest.mark.parametrize("name", list_shipped())
    def test_evolve_expands_one_pass(self, monkeypatch, name):
        expanded = []
        original = tdse._expand

        def counting(intervals, start):
            expanded.append(intervals.shape[-1])
            return original(intervals, start)

        monkeypatch.setattr(tdse, "_expand", counting)
        sc = load_shipped(name)
        traj = evolve(sc.system, sc.field, sc.grid(), sc.initial_state, **tolerances(sc))
        assert len(traj.attempts) >= 2
        assert expanded == [len(traj.grid) - 1]

    @pytest.mark.parametrize("name", list_shipped())
    def test_final_states_scans_nothing_after_acceptance(self, monkeypatch, name):
        # Each pass takes one last-column scan after its build; the accepted
        # state is that pass's, so acceptance adds no scan.
        events = []
        build_pass, expand_last = tdse._build_pass, tdse._expand_last

        def recording_build(*args):
            events.append("build")
            return build_pass(*args)

        def recording_expand_last(intervals, start):
            events.append("scan")
            return expand_last(intervals, start)

        def no_scan(*args):
            raise AssertionError("a full expansion in final_states")

        monkeypatch.setattr(tdse, "_build_pass", recording_build)
        monkeypatch.setattr(tdse, "_expand_last", recording_expand_last)
        monkeypatch.setattr(tdse, "_expand", no_scan)
        sc = load_shipped(name)
        (traj,) = tdse.final_states([(sc.system, sc.field)], sc.grid(), sc.initial_state,
                                    **tolerances(sc))
        assert events == ["build", "scan"] * len(traj.attempts)


def time_independent(envelope=ConstantEnvelope, beta=0.0):
    """Damped, detuned system under a constant field; without chirp its
    rotating-frame coupling is time-independent."""
    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_g=0.02, gamma_e=0.1)
    field = FieldModel(carrier_omega=4.6, envelope=envelope(1.3),
                       phase=Chirp(phi0=0.2, beta=beta))
    return params, field


class _DisguisedConstant:
    """A constant envelope under another kind: a pass builds every step
    matrix for it."""

    kind = "disguised-constant"
    t_center = 0.0

    def __init__(self, omega0):
        self.omega0 = omega0

    def omega(self, t):
        return self.omega0 * np.ones_like(np.asarray(t, dtype=float))


@pytest.fixture
def built(monkeypatch):
    """Number of step matrices each ``_step_matrices`` call builds."""
    sizes = []
    original = tdse._step_matrices

    def counting(k0, *args):
        sizes.append(k0.size)
        return original(k0, *args)

    monkeypatch.setattr(tdse, "_step_matrices", counting)
    return sizes


def fast_run(envelope):
    """A run whose coupling is too fast for any pass on the grid of
    :class:`TestSubstepLimit`."""
    field = FieldModel(carrier_omega=4.0, envelope=envelope)
    return SystemParams(omega_g=0.0, omega_e=5.0), field


class TestSubstepLimit:
    """A pass of more than ``MAX_PASS_SUBSTEPS`` substeps fails by name
    before any step matrix is built."""

    @pytest.mark.parametrize("run, rows, n0, rows_built, forced", [
        (fast_run(ConstantEnvelope(1e12)), 10, 5e8, 1, False),
        # A time-dependent coupling builds the substeps of every interval.
        (fast_run(GaussianEnvelope(omega0=5e10, t_center=5e-4, tau=1e-3)), 10, 2.5e7, 10, False),
        # First passes one substep past the limit, from a rate set to ask
        # for them.
        (time_independent(), 4, MAX_PASS_SUBSTEPS + 1, 1, True),
        (chirped_pulse(), 4, MAX_PASS_SUBSTEPS // 4 + 1, 4, True),
    ], ids=["constant", "gaussian", "constant-at-the-limit", "chirped-at-the-limit"])
    def test_pass_beyond_the_substep_limit_fails_by_name(self, monkeypatch, built, run, rows,
                                                         n0, rows_built, forced):
        # One pass would take hours: it fails before any step matrix is built.
        grid = np.linspace(0.0, 1e-3, rows + 1)
        if forced:
            rate = tdse._INITIAL_RADIANS_PER_STEP * (n0 - 0.5) / uniform_grid(grid)[1]
            monkeypatch.setattr(tdse, "_characteristic_rate", lambda *args: rate)
        with pytest.raises(StepUnderflow) as failure:
            evolve(*run, grid)
        match = re.fullmatch(r"a pass at (\d+) substeps per output interval would build "
                             rf"(\d+) substeps, beyond the limit of {MAX_PASS_SUBSTEPS} per pass",
                             str(failure.value))
        n_sub, count = int(match[1]), int(match[2])
        # The first pass: h_out times the peak Rabi frequency over 0.2 rad.
        assert n_sub == (n0 if forced else pytest.approx(n0, rel=1e-6))
        assert count == rows_built * n_sub > MAX_PASS_SUBSTEPS
        assert built == []
        (batched,) = tdse.final_states([run], grid)
        assert type(batched) is StepUnderflow and str(batched) == str(failure.value)
        assert built == []


class TestTimeIndependentCoupling:
    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("n_sub, intervals", [
        (1, 3 * _BLOCK_SUBSTEPS + 5), (7, 2000), (64, 300), (_BLOCK_SUBSTEPS + 3, 3),
    ])
    def test_bitwise_equal_to_general_path(self, built, init, n_sub, intervals):
        grid = np.linspace(-9.0, 9.0, intervals + 1)
        fast = fixed_pass(*time_independent(), grid, init, n_sub)
        assert sum(built) == n_sub
        built.clear()
        general = fixed_pass(*time_independent(_DisguisedConstant), grid, init, n_sub)
        assert sum(built) == intervals * n_sub
        assert np.array_equal(fast.c_g, general.c_g)
        assert np.array_equal(fast.c_e, general.c_e)

    @pytest.mark.parametrize("beta", [0.05, -0.05])
    def test_chirp_takes_general_path(self, built, beta):
        # A chirp of either sign makes the constant coupling time-dependent.
        fixed_pass(*time_independent(beta=beta), np.linspace(-9.0, 9.0, 301), "ground", 5)
        assert sum(built) == 300 * 5


LONG = np.longdouble


def long_envelope(envelope, t):
    """The envelope's Omega(t) evaluated in long double."""
    if envelope.kind == "constant":
        return np.full(len(t), LONG(envelope.omega0))
    x = (t - LONG(envelope.t_center)) / LONG(envelope.tau)
    if envelope.kind == "gaussian":
        return LONG(envelope.omega0) * np.exp(-x * x)
    return LONG(envelope.omega0) / np.cosh(x)


def long_phase(field, t):
    """phi(t) evaluated in long double."""
    phase = field.phase
    x = t - LONG(field.phase_center)
    return LONG(phase.phi0) + LONG(phase.beta) / 2 * x * x


def long_double_rk4(params, field, grid, n_sub):
    """Classic rotating-frame RK4 in long double, one substep at a time.

    The coupling is sampled on the stage lattice grid[0] + j h/2 of
    :func:`reference.fixed_pass`, with every operation in long double, so
    with the same ``n_sub`` the two differ only by the float64 rounding of
    the pass.
    """
    grid, h_out = uniform_grid(grid)
    h = LONG(h_out) / n_sub
    t = LONG(grid[0]) + np.arange(2 * (len(grid) - 1) * n_sub + 1) * (h / 2)
    phi = long_phase(field, t)
    w = LONG(params.mu) * long_envelope(field.envelope, t) / 2 * (np.cos(phi) + 1j * np.sin(phi))
    iw, iwc = list(1j * w), list(1j * np.conj(w))
    d_g = -LONG(params.gamma_g) / 2
    d_e = -1j * LONG(detuning(params, field)) - LONG(params.gamma_e) / 2
    half, sixth = h / 2, h / 6
    g, e = np.clongdouble(1), np.clongdouble(0)
    out = [(g, e)]
    for i in range(len(grid) - 1):
        for j in range(2 * i * n_sub, 2 * (i + 1) * n_sub, 2):
            k1g, k1e = d_g * g + iw[j] * e, d_e * e + iwc[j] * g
            sg, se = g + half * k1g, e + half * k1e
            k2g, k2e = d_g * sg + iw[j + 1] * se, d_e * se + iwc[j + 1] * sg
            sg, se = g + half * k2g, e + half * k2e
            k3g, k3e = d_g * sg + iw[j + 1] * se, d_e * se + iwc[j + 1] * sg
            sg, se = g + h * k3g, e + h * k3e
            k4g, k4e = d_g * sg + iw[j + 2] * se, d_e * se + iwc[j + 2] * sg
            g = g + sixth * (k1g + 2 * (k2g + k3g) + k4g)
            e = e + sixth * (k1e + 2 * (k2e + k3e) + k4e)
        out.append((g, e))
    return np.array(out)


@pytest.mark.skipif(np.finfo(LONG).eps > 1e-18, reason="long double is not extended precision")
class TestRounding:
    """Rounding error of a fixed pass and of the lattice phase factor
    against the same computations in long double."""

    # Bounds are 1.5 times the error of the stage-form step matrices that
    # the closed form replaced (7.66e-13, 5.76e-14 and 7.11e-15). Summing
    # the identity into the diagonal first instead of last raises the last
    # case's error twentyfold.
    @pytest.mark.parametrize("name, intervals, n_sub, bound", [
        ("constant-detuned", None, 64, 1.15e-12),
        ("sech-chirped", 800, 16, 8.6e-14),
        ("gaussian-chirped-damped", 800, 16, 1.07e-14),
    ])
    def test_propagator_against_long_double_rk4(self, name, intervals, n_sub, bound):
        sc = load_shipped(name)
        grid = sc.grid()[:None if intervals is None else intervals + 1]
        traj = fixed_pass(sc.system, sc.field, grid, n_sub=n_sub)
        ref = long_double_rk4(sc.system, sc.field, grid, n_sub).astype(complex)
        err = max(np.max(np.abs(traj.c_g - ref[:, 0])), np.max(np.abs(traj.c_e - ref[:, 1])))
        assert err < bound

    @pytest.mark.parametrize("first, count", [(0, 2 * 400 * 82 + 1), (2 * 4097, 1001)])
    def test_chirp_factor_against_long_double(self, first, count):
        # A chirp lattice over [-40, 40], 400 intervals of 82 substeps:
        # phases reach 800 rad.
        window, n_sub = 40.0, 82
        field = FieldModel(carrier_omega=1.0, envelope=ConstantEnvelope(1.0),
                           phase=Chirp(phi0=0.3, beta=-1.0, t_center=0.0))
        s = 0.5 * (2.0 * window / 400 / n_sub)
        factor = tdse._chirp_factor(field, -window, s, first, count)
        phi = long_phase(field, LONG(-window) + np.arange(first, first + count) * LONG(s))
        err = np.hypot((factor.real - np.cos(phi)).astype(float),
                       (factor.imag - np.sin(phi)).astype(float))
        scale = float(np.max(np.abs(phi)))
        assert err.shape == (count,)
        assert np.max(err) < 3 * np.finfo(float).eps * max(1.0, scale)

    def test_constant_phase_factor(self):
        field = FieldModel(carrier_omega=1.0, envelope=ConstantEnvelope(1.0),
                           phase=Chirp(phi0=0.3))
        assert tdse._chirp_factor(field, -1.0, 0.01, 0, 11) == complex(math.cos(0.3), math.sin(0.3))


def full_sweep_survivals(couplings, sweep_rate):
    """The survivals of :func:`lz_survivals` integrated over the whole sweep
    [-window, window] from the ground state, as before the half sweep
    replaced it."""
    window = tdse.LZ_WINDOW_SCALE / math.sqrt(sweep_rate)
    field = FieldModel(carrier_omega=1.0, phase=Chirp(beta=-sweep_rate, t_center=0.0),
                       envelope=tdse._FlatTopEnvelope(1.0, window))
    runs = [(SystemParams(omega_g=0.0, omega_e=1.0, mu=2.0 * coupling), field)
            for coupling in couplings]
    trajs = tdse.final_states(runs, np.linspace(-window, window, 401), init="ground",
                              rtol=tdse.LZ_RTOL, atol=tdse.LZ_ATOL)
    return [float(abs(traj.c_g[-1]) ** 2) for traj in trajs]


class TestLandauZener:
    # Runs that accept the same substep on both sweeps agree to 2.4e-14. At
    # rate 0.5 the full sweep of coupling 0.8 accepts 128 substeps per
    # interval and its half sweep 64: they differ by 3.8e-12, the truncation
    # error of the coarser pass, far inside the tolerance both passes meet.
    @pytest.mark.parametrize("couplings, sweep_rate, bound", [
        ((0.1, 0.25, 0.5), 1.0, 1e-12),
        ((0.05, 0.3, 0.8), 0.5, 1e-11),
        ((0.05, 0.3, 0.8), 2.0, 1e-12),
    ])
    def test_half_sweep_matches_full_sweep(self, couplings, sweep_rate, bound):
        # The time symmetry rebuilds the full sweep's survival from half of it.
        half = lz_survivals(couplings, sweep_rate)
        full = full_sweep_survivals(couplings, sweep_rate)
        assert max(abs(h - f) for h, f in zip(half, full)) < bound

    def test_survival_matches_asymptotic_formula(self):
        # The couplings of the validate check, each bound at 1.5 times its
        # measured error (7.52e-9, 2.98e-8, 3.17e-8), far inside the
        # check's own 1e-3.
        couplings = (0.1, 0.25, 0.5)
        errors = [abs(survival - lz_oracle(coupling, 1.0))
                  for coupling, survival in zip(couplings, lz_survivals(couplings, 1.0))]
        assert all(error < bound for error, bound in zip(errors, [1.13e-8, 4.47e-8, 4.75e-8]))

    def test_faster_sweep(self):
        assert abs(lz_survivals((0.3,), 4.0)[0] - lz_oracle(0.3, 4.0)) < 1e-4

    def test_sweep_direction_irrelevant(self, monkeypatch):
        # The mirrored sweep integrates the opposite chirp, whose coupling is
        # the conjugate one: it gives conj c_g, -conj c_e and the same survival.
        runs = []
        original = tdse.final_states

        def recording(batch, *args, **kwargs):
            (traj,) = original(batch, *args, **kwargs)
            runs.append((batch[0][1].phase.beta, traj))
            return [traj]

        monkeypatch.setattr(tdse, "final_states", recording)
        forward, mirrored = lz_survivals((0.2,), 1.0), lz_survivals((0.2,), -1.0)
        (beta, traj), (beta_mirrored, traj_mirrored) = runs
        assert beta_mirrored == -beta != 0.0
        assert traj_mirrored.c_g[-1] == np.conj(traj.c_g[-1])
        assert traj_mirrored.c_e[-1] == -np.conj(traj.c_e[-1])
        assert mirrored == forward

    def test_validation(self):
        for couplings, sweep_rate, message in [
            ((0.1,), 0.0, "lz_survivals.sweep_rate must be nonzero, got 0.0"),
            ((0.1,), math.nan, "lz_survivals.sweep_rate must be finite, got nan"),
            ((0.1,), math.inf, "lz_survivals.sweep_rate must be finite, got inf"),
            ((0.2, 0.0), 1.0, "lz_survivals.coupling must be positive, got 0.0"),
            ((0.2, -0.1), 1.0, "lz_survivals.coupling must be positive, got -0.1"),
            ((0.2, math.nan), 1.0, "lz_survivals.coupling must be finite, got nan"),
            ((math.inf,), 1.0, "lz_survivals.coupling must be finite, got inf"),
        ]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                lz_survivals(couplings, sweep_rate)


def unweighted_rate(params, field, grid):
    """The starting rate with the chirp counted at its full |dphi/dt|, as
    before the coupling weighted it."""
    return max(float(np.max(params.mu * field.envelope.omega(grid))),
               float(np.max(np.abs(field.dphi(grid)))), abs(detuning(params, field)),
               params.gamma_g, params.gamma_e, 1e-3)


@st.composite
def rate_cases(draw):
    """A run and a grid, with Gaussian wings that may underflow on the
    whole grid."""
    kind = draw(st.sampled_from(["constant", "gaussian", "sech"]))
    omega0 = draw(st.floats(1e-3, 10.0))
    if kind == "constant":
        envelope = ConstantEnvelope(omega0)
    else:
        cls = GaussianEnvelope if kind == "gaussian" else SechEnvelope
        envelope = cls(omega0=omega0, t_center=draw(st.floats(-5.0, 5.0)),
                       tau=draw(st.floats(0.1, 5.0)))
    phase = Chirp(phi0=draw(st.floats(-1.0, 1.0)), beta=draw(st.floats(-50.0, 50.0)),
                  t_center=draw(st.none() | st.floats(-5.0, 5.0)))
    params = SystemParams(omega_g=0.0, omega_e=draw(st.floats(0.5, 10.0)),
                          mu=draw(st.floats(0.1, 10.0)), gamma_g=draw(st.floats(0.0, 1.0)),
                          gamma_e=draw(st.floats(0.0, 1.0)))
    field = FieldModel(carrier_omega=draw(st.floats(0.5, 10.0)), envelope=envelope, phase=phase)
    t0 = draw(st.floats(-60.0, 60.0))
    grid = np.linspace(t0, t0 + draw(st.floats(0.1, 40.0)), draw(st.integers(2, 200)))
    return params, field, grid


class TestCharacteristicRate:
    """The chirp rate counts where the coupling it turns is on."""

    @given(case=rate_cases())
    @settings(max_examples=200, deadline=None)
    def test_weighted_rate_never_exceeds_the_full_rate(self, case):
        params, field, grid = case
        # As in the controller, a sech wing whose cosh overflows is 0.
        with np.errstate(over="ignore"):
            rate = tdse._characteristic_rate(params, field, grid)
            full = unweighted_rate(params, field, grid)
        assert rate <= full
        if field.envelope.kind == "constant":
            assert rate == full

    FAR_PULSE = {
        "name": "far-pulse",
        "system": {"omega_g": 0.0, "omega_e": 5.0},
        "field": {"carrier_omega": 4.0,
                  "envelope": {"kind": "gaussian", "omega0": 0.5, "t_center": 1000.0, "tau": 1.0},
                  "phase": {"beta": 0.3}},
        "grid": {"t_start": 0.0, "t_end": 2.0, "step": 0.0025},
    }

    def test_envelope_zero_on_the_whole_grid(self, tmp_path, capsys):
        # Omega underflows to 0 everywhere: the chirp counts unweighted.
        sc = scenario_from_dict(self.FAR_PULSE)
        grid = sc.grid()
        assert not np.any(sc.field.envelope.omega(grid))
        assert (tdse._characteristic_rate(sc.system, sc.field, grid)
                == unweighted_rate(sc.system, sc.field, grid))
        out = tmp_path / "table.csv"
        assert main(["evolve", write_doc(tmp_path, self.FAR_PULSE), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = read_table(out)
        assert header == ["t", "Re_c_g", "Im_c_g", "Re_c_e", "Im_c_e", "norm"]
        assert len(rows) == len(grid)
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_overflow_in_underflowed_wings_fails_by_name(self, tmp_path, capsys):
        # The chirp rate overflows where the Gaussian's wings underflow to 0;
        # it is checked before the weighting could make inf * 0 a NaN.
        doc = dict(self.FAR_PULSE, name="wing-chirp-overflow",
                   field={"carrier_omega": 4.0,
                          "envelope": {"kind": "gaussian", "omega0": 0.5, "tau": 2.0},
                          "phase": {"beta": 1e308}},
                   grid={"t_start": -100.0, "t_end": 100.0, "step": 0.005})
        out = tmp_path / "table.csv"
        assert main(["evolve", write_doc(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical error: chirp rate |dphi/dt| on the grid is not finite: inf\n")
        assert not out.exists()


def doubling_evolve(params, field, grid, init=DEFAULT_INIT, rtol=DEFAULT_RTOL,
                    atol=DEFAULT_ATOL):
    """The plain doubling controller, as ``evolve`` ran before it predicted
    the accepted count: double ``n_sub`` from the rate heuristic until one
    halving changes the last point by less than ``rtol * max(1, |c|) + atol``.
    Like ``evolve`` it compares the last states of the built passes
    and expands the accepted one, and it stops at the same pass limit.
    Returns the accepted pass and the number of passes run."""
    grid, h_out = uniform_grid(grid)
    start = tdse._start(init)
    built_rows = tdse._built_rows(field, len(grid) - 1)
    rate = tdse._characteristic_rate(params, field, grid)
    n_sub = max(1, math.ceil(h_out * rate / tdse._INITIAL_RADIANS_PER_STEP))
    prev, passes = None, 0
    while True:
        if n_sub * built_rows > MAX_PASS_SUBSTEPS:
            raise StepUnderflow(
                f"a pass at {n_sub} substeps per output interval would build "
                f"{n_sub * built_rows} substeps, beyond the limit of {MAX_PASS_SUBSTEPS} per pass"
            )
        intervals = tdse._build_pass(((params, field),), grid, n_sub)
        last = tdse._expand_last(intervals, start)[:, 0]
        passes += 1
        if prev is not None:
            err = max(abs(last[0] - prev[0]), abs(last[1] - prev[1]))
            scale = max(1.0, abs(last[0]), abs(last[1]))
            if err < rtol * scale + atol:
                states = tdse._expand(intervals[:, :, 0], start)
                return tdse._trajectory(grid, states, n_sub, ()), passes
        n_sub *= 2
        prev = last


def random_case(rng, i):
    """Damped chirped two-level problem number ``i``: envelope kind and
    tolerance cycle with ``i``, the rest is drawn from ``rng``."""
    omega_e = rng.uniform(1.0, 6.0)
    params = SystemParams(
        omega_g=0.0, omega_e=omega_e,
        gamma_g=rng.uniform(0.0, 0.1), gamma_e=rng.uniform(0.0, 0.3),
    )
    omega0, tau = rng.uniform(0.1, 2.0), rng.uniform(1.0, 6.0)
    envelope = (
        ConstantEnvelope(omega0),
        GaussianEnvelope(omega0=omega0, t_center=0.0, tau=tau),
        SechEnvelope(omega0=omega0, tau=tau),
    )[i % 3]
    field = FieldModel(
        carrier_omega=omega_e - rng.uniform(-1.0, 1.0),
        envelope=envelope,
        phase=Chirp(phi0=rng.uniform(-1.0, 1.0), beta=rng.uniform(-0.1, 0.1), t_center=0.0),
    )
    half = rng.uniform(2.0, 4.0) * tau
    grid = np.linspace(-half, half, int(rng.integers(21, 161)))
    init = ("ground", "excited")[int(rng.integers(2))]
    rtol = (1e-10, 1e-8, 1e-6)[i // 2 % 3]
    return params, field, grid, init, rtol


def _same_pass(new, ref):
    return (new.n_sub == ref.n_sub and np.array_equal(new.c_g, ref.c_g)
            and np.array_equal(new.c_e, ref.c_e))


class TestPredictiveController:
    """``evolve`` jumps to the predicted substep count; when the prediction
    is right it accepts the very pass the doubling controller accepts."""

    @pytest.mark.parametrize("name", list_shipped())
    def test_shipped_scenarios_match_doubling(self, name):
        sc = load_shipped(name)
        integ = sc.integrator
        args = (sc.system, sc.field, sc.grid(), sc.initial_state, integ.rtol, integ.atol)
        new = evolve(*args)
        ref, passes = doubling_evolve(*args)
        assert _same_pass(new, ref)
        assert len(new.attempts) <= passes

    def test_random_scenarios_match_doubling(self):
        rng = np.random.default_rng(20111201)
        passes_new = passes_ref = 0
        for i in range(42):
            params, field, grid, init, rtol = random_case(rng, i)
            new = evolve(params, field, grid, init, rtol, 1e-12)
            ref, passes = doubling_evolve(params, field, grid, init, rtol, 1e-12)
            assert _same_pass(new, ref), (i, new.attempts)
            passes_new += len(new.attempts)
            passes_ref += passes
        assert passes_new < passes_ref

    #: The passes ``evolve`` runs on each shipped scenario. Where the
    #: prediction skips doubling steps it takes three passes.
    SHIPPED_PASSES = {
        "constant-damped": [1, 2, 32],
        "constant-detuned": [1, 2, 64],
        "constant-rabi-resonant": [1, 2],
        "gaussian-chirped-damped": [1, 2, 8],
        "gaussian-slow-adiabatic": [3, 6],
        "lz-linear-sweep": [10, 20],
        "sech-chirped": [1, 2, 16],
        "sech-damped": [1, 2, 4],
    }

    @pytest.mark.parametrize("name", list(SHIPPED_PASSES))
    def test_shipped_scenario_passes(self, name):
        sc = load_shipped(name)
        traj = evolve(sc.system, sc.field, sc.grid(), sc.initial_state, **tolerances(sc))
        assert [n for n, _ in traj.attempts] == self.SHIPPED_PASSES[name]
        assert traj.attempts[0][1] is None
        assert all(err > 1.0 for _, err in traj.attempts[1:-1])
        assert traj.attempts[-1][1] < 1.0

    @staticmethod
    def record_batches(monkeypatch):
        """The passes of every run of each :func:`final_states` call."""
        batches = []
        original = tdse.final_states

        def recording(*args, **kwargs):
            results = original(*args, **kwargs)
            batches.append([[n for n, _ in traj.attempts] for traj in results])
            return results

        monkeypatch.setattr(tdse, "final_states", recording)
        return batches

    @pytest.mark.parametrize("coupling", [0.1, 0.25, 0.5])
    def test_lz_survival_passes(self, monkeypatch, coupling):
        batches = self.record_batches(monkeypatch)
        lz_survivals((coupling,), 1.0)
        assert batches == [[[32, 64]]]

    def test_lz_couplings_run_as_one_batch(self, monkeypatch):
        # The three couplings of the validate check: one batch, each run
        # with the passes it takes alone, and the survivals of the runs alone.
        batches = self.record_batches(monkeypatch)
        couplings = (0.1, 0.25, 0.5)
        survivals = lz_survivals(couplings, 1.0)
        assert batches == [[[32, 64]] * 3]
        assert survivals == [lz_survivals((coupling,), 1.0)[0] for coupling in couplings]

    def test_lz_couplings_share_their_envelope_samples(self, monkeypatch):
        # The runs differ in mu alone: each block evaluates the envelope
        # once, besides the rate estimate of each run.
        calls = {"omega": 0, "blocks": 0}
        omega, stage_coupling = tdse._FlatTopEnvelope.omega, tdse._stage_coupling

        def counting_omega(envelope, t):
            calls["omega"] += 1
            return omega(envelope, t)

        def counting_blocks(*args):
            calls["blocks"] += 1
            return stage_coupling(*args)

        monkeypatch.setattr(tdse._FlatTopEnvelope, "omega", counting_omega)
        monkeypatch.setattr(tdse, "_stage_coupling", counting_blocks)
        lz_survivals((0.1, 0.25, 0.5), 1.0)
        # 200 intervals in blocks of 128 at n_sub 32 and of 64 at n_sub 64.
        assert calls["blocks"] == 2 + 4
        assert calls["omega"] == calls["blocks"] + 3

    def test_attempts_record(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 51)
        traj = evolve(params, field, grid, rtol=1e-6, atol=1e-9)
        assert traj.attempts[-1][0] == traj.n_sub
        assert traj.attempts[-1][1] < 1.0
        assert all(err >= 1.0 for _, err in traj.attempts[1:-1])


class PrescribedPass(np.ndarray):
    """An interval stack that carries the last state the controller is to
    compare for it (``last``, shape (2, 1)), exactly: an infinite amplitude
    taken through complex products would reach it as nan+nanj."""


def fake_pass(grid, last_g, last_e=0.0):
    """The interval stack of a pass of one run that takes the ground state
    to (last_g, last_e): identity intervals, then one whose first column is
    that state. Each amplitude stays in its own row of every product, so a
    non-finite value in one leaves the other finite; ``last`` holds the
    state itself for :func:`prescribed_last`."""
    intervals = np.zeros((2, 2, 1, len(grid) - 1), dtype=complex).view(PrescribedPass)
    intervals[0, 0] = intervals[1, 1] = 1.0
    intervals[:, :, 0, -1] = [[last_g, 0.0], [last_e, 0.0]]
    intervals.last = np.array([[last_g], [last_e]], dtype=complex)
    return intervals


def prescribed_last(intervals, y):
    """``_expand_last`` stand-in: the last state a :class:`PrescribedPass`
    carries."""
    return intervals.last


def use_passes(monkeypatch, fake):
    """Build every pass with ``fake`` and compare its prescribed last state."""
    monkeypatch.setattr(tdse, "_build_pass", fake)
    monkeypatch.setattr(tdse, "_expand_last", prescribed_last)
    return fake


def synthetic(order, amplitude, unit=1, bad=None, component="c_g"):
    """``_build_pass`` stand-in whose last ground amplitude is
    0.5 + amplitude (unit / n_sub)^order; from the second pass on, ``bad``
    replaces the last value of ``component`` when given."""
    calls = []

    def fake(runs, grid, n_sub):
        last = {"c_g": 0.5 + amplitude * (unit / n_sub) ** order, "c_e": 0.0}
        if bad is not None and calls:
            last[component] = bad
        calls.append(n_sub)
        return fake_pass(grid, last["c_g"], last["c_e"])

    fake.calls = calls
    return fake


class TestControllerRobustness:
    # n0 = 1 on this grid; tol = 1e-10 * 1 + 1e-12 for |c| <= 1.
    GRID = np.linspace(0.0, 1.0, 5)
    TOL = 1e-10 + 1e-12

    @pytest.mark.parametrize("order, passes", [(4, [1, 2, 64]),
                                               (2, [1, 2, 64, 128, 256, 512, 1024])])
    def test_jump_needs_fourth_order(self, monkeypatch, order, passes):
        # First-pair ratio r = 1.01 * 16^4 predicts a jump of 2^5. At second
        # order the jumped pass meets the rescaled tolerance, but the triple
        # shows first / second = 3 instead of 15: doubling takes over.
        first_pair = 1.0 - 2.0**-order
        amplitude = 1.01 * 16**4 * self.TOL / first_pair
        fake = use_passes(monkeypatch, synthetic(order, amplitude))
        params, field = resonant(0.2)
        traj = evolve(params, field, self.GRID)
        assert fake.calls == passes
        assert [n for n, _ in traj.attempts] == passes
        assert traj.attempts[2][1] < 1.0
        assert traj.attempts[-1][1] < 1.0
        if order == 2:
            assert all(err >= 1.0 for _, err in traj.attempts[3:-1])
        else:
            ref, _ = doubling_evolve(params, field, self.GRID)
            assert ref.n_sub == traj.n_sub

    def test_jump_capped_at_two_to_the_fifth(self, monkeypatch):
        # r = 1.01 * 16^6 predicts 2^7; the jump stops at 2^5 and doubling
        # reaches the pass doubling from n0 accepts.
        amplitude = 1.01 * 16**6 * self.TOL / (1.0 - 2.0**-4)
        use_passes(monkeypatch, synthetic(4, amplitude))
        params, field = resonant(0.2)
        traj = evolve(params, field, self.GRID)
        assert [n for n, _ in traj.attempts] == [1, 2, 64, 128, 256]
        ref, _ = doubling_evolve(params, field, self.GRID)
        assert ref.n_sub == traj.n_sub

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("component", ["c_g", "c_e"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, math.nan)])
    def test_non_finite_difference_fails_by_name(self, monkeypatch, bad, component):
        params, field = resonant(0.2)
        use_passes(monkeypatch, synthetic(4, 1.0, bad=bad))
        with pytest.raises(StepUnderflow) as doubling:
            doubling_evolve(params, field, self.GRID)
        # With the ground amplitude converging, a NaN in the excited one
        # alone must still count as a non-finite difference.
        use_passes(monkeypatch, synthetic(4, 1.0, bad=bad, component=component))
        with pytest.raises(StepUnderflow) as predicted:
            evolve(params, field, self.GRID)
        assert str(predicted.value) == str(doubling.value)

    def test_jump_lands_under_the_pass_limit(self, monkeypatch):
        # n0 = 2^21 substeps per interval of a constant coupling, whose
        # passes build one row of the four: the predicted jump of 2^5 from
        # 2 n0 would ask for 2^27, past the limit of 2^26. It lands on 2^26,
        # the last count doubling runs, and the pass after it fails as
        # doubling's does.
        n0 = 2**21
        params, field = resonant(0.8 * n0)
        grid = np.linspace(0.0, 1.0, 5)
        fake = use_passes(monkeypatch, synthetic(4, 1.0, unit=n0))
        with pytest.raises(StepUnderflow) as doubling:
            doubling_evolve(params, field, grid)
        assert fake.calls == [n0 << i for i in range(6)]
        fake.calls.clear()
        with pytest.raises(StepUnderflow) as predicted:
            evolve(params, field, grid)
        assert fake.calls == [n0, 2 * n0, MAX_PASS_SUBSTEPS]
        assert str(predicted.value) == str(doubling.value) == (
            "a pass at 134217728 substeps per output interval would build 134217728 "
            f"substeps, beyond the limit of {MAX_PASS_SUBSTEPS} per pass")
