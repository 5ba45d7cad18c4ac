"""Amplitude-equation integrator: RHS conventions, closed-form oracles,
convergence order, frame consistency, agreement of the block propagator
with a scalar RK4 loop, the work-efficient expansion against the
Hillis-Steele one it replaced, and the predictive substep controller against
the plain doubling controller."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nads import tdse
from nads.errors import StepUnderflow, ToleranceUnreachable
from nads.field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import detuning, uniform_grid
from nads.scenario import list_shipped, load_shipped
from nads.tdse import (
    _BLOCK_SUBSTEPS,
    STEP_UNDERFLOW_FRACTION,
    Trajectory,
    evolve,
    lz_oracle,
    lz_survival,
    lz_survivals,
    propagate_fixed,
    rabi_oracle,
    rhs,
    rz_oracle,
)

OFF = ConstantEnvelope(1e-20)  # coupling far below every tolerance in use


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

    def test_bad_frame(self):
        params, field = resonant(0.2)
        with pytest.raises(ValueError, match="frame"):
            rhs(0.0, (1.0, 0.0), params, field, frame="interaction")


class TestClosedFormOracles:
    def test_rabi_oracle_values(self):
        assert rabi_oracle(0.2, 0.0) == (1.0, 0.0)
        p_g, p_e = rabi_oracle(0.2, math.pi / 0.2)
        assert p_e == pytest.approx(1.0, abs=1e-15)
        p_g, p_e = rabi_oracle(0.2, math.pi / 0.4)
        assert p_g == pytest.approx(0.5, abs=1e-15)
        assert p_e == pytest.approx(0.5, abs=1e-15)

    def test_rabi_oracle_validation(self):
        with pytest.raises(ValueError):
            rabi_oracle(0.0, 1.0)
        with pytest.raises(ValueError):
            rabi_oracle(-0.2, 1.0)

    def test_lz_oracle_values(self):
        assert lz_oracle(0.0, 1.0) == 1.0
        assert lz_oracle(100.0, 1.0) == 0.0
        assert lz_oracle(0.25, 1.0) == pytest.approx(0.6752319066557772, rel=1e-12)
        assert lz_oracle(0.1, 1.0) == pytest.approx(0.9391013674242926, rel=1e-12)
        assert lz_oracle(0.5, 1.0) == pytest.approx(0.2078795763507619, rel=1e-12)
        assert lz_oracle(0.3, -2.0) == lz_oracle(0.3, 2.0)

    def test_lz_oracle_validation(self):
        with pytest.raises(ValueError):
            lz_oracle(0.1, 0.0)

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
        traj = evolve(params, field, grid, init="ground", frame="rotating")
        assert abs(abs(traj.c_e[-1]) ** 2 - 1.0) < 1e-8

    def test_pi_pulse_from_excited(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 201)
        traj = evolve(params, field, grid, init="excited", frame="rotating")
        assert abs(abs(traj.c_g[-1]) ** 2 - 1.0) < 1e-8

    def test_lab_frame_pi_pulse(self):
        # Counter-rotating terms allowed at the (Omega/omega)^2 scale.
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 201)
        traj = evolve(params, field, grid, init="ground", frame="lab")
        assert abs(abs(traj.c_e[-1]) ** 2 - 1.0) < 1e-2

    def test_population_tracks_rabi_oracle_pointwise(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 201)
        traj = evolve(params, field, grid, init="ground", frame="rotating")
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
        traj = evolve(params, field, grid, init="ground", frame="rotating")
        p_e = abs(traj.c_e[-1]) ** 2
        assert abs(p_e - rz_oracle(omega0, tau, delta)) < 1e-12

    def test_field_free_decay(self):
        params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_e=0.5)
        field = FieldModel(carrier_omega=5.0, envelope=OFF)
        grid = np.linspace(0.0, 2.0, 101)
        traj = evolve(params, field, grid, init="excited", frame="rotating")
        assert abs(abs(traj.c_e[-1]) ** 2 - math.exp(-1.0)) < 1e-8
        assert np.max(np.abs(traj.norm - np.exp(-0.5 * grid))) < 1e-8

    def test_ground_decay_law(self):
        params = SystemParams(omega_g=1.0, omega_e=5.0, gamma_g=0.25)
        field = FieldModel(carrier_omega=4.0, envelope=OFF)
        grid = np.linspace(0.0, 4.0, 81)
        traj = evolve(params, field, grid, init="ground", frame="lab")
        assert np.max(np.abs(traj.norm - np.exp(-0.25 * grid))) < 1e-8

    def test_frame_consistency(self):
        omega0, carrier = 0.3, 5.0
        params, field = resonant(omega0, omega_e=carrier)
        grid = np.linspace(0.0, math.pi / omega0, 301)
        rot = evolve(params, field, grid, frame="rotating")
        lab = evolve(params, field, grid, frame="lab")
        bound = (omega0 / carrier) ** 2 + 1e-6
        assert abs(abs(rot.c_e[-1]) ** 2 - abs(lab.c_e[-1]) ** 2) < bound
        assert abs(abs(rot.c_g[-1]) ** 2 - abs(lab.c_g[-1]) ** 2) < bound

    def test_trajectory_metadata(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        traj = evolve(params, field, grid, frame="rotating")
        assert isinstance(traj, Trajectory)
        assert traj.frame == "rotating"
        assert traj.n_sub >= 1
        assert traj.c_g[0] == 1.0 and traj.c_e[0] == 0.0
        assert np.array_equal(traj.grid, grid)
        assert traj.grid is not grid

    def test_two_point_grid(self):
        params, field = resonant(0.2)
        traj = evolve(params, field, np.array([0.0, 0.5]), frame="rotating")
        assert len(traj.c_g) == 2


class TestConvergence:
    def test_fourth_order_substep_halving(self):
        params, field = resonant(2.0)
        grid = np.linspace(0.0, 1.0, 11)

        def endpoint(n_sub):
            traj = propagate_fixed(params, field, grid, n_sub=n_sub)
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
        fine = propagate_fixed(params, field, grid, n_sub=8 * coarse.n_sub)
        assert abs(coarse.c_e[-1] - fine.c_e[-1]) < 1e-6


class TestValidationAndFailure:
    def test_step_underflow_raises_before_propagating(self):
        params = SystemParams(omega_g=0.0, omega_e=1e15)
        field = FieldModel(carrier_omega=1e15, envelope=ConstantEnvelope(1.0))
        grid = np.linspace(0.0, 1e-3, 3)
        with pytest.raises(StepUnderflow, match="substep"):
            evolve(params, field, grid, frame="lab")

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

        def fake(runs, grid, h_out, start, frame, n_sub):
            sign = (-1) ** int(math.log2(n_sub))
            calls.append(n_sub)
            return fake_pass(grid, 0.5 + 1e-6 / n_sub**4 + sign * 1e-14 * n_sub)

        monkeypatch.setattr(tdse, "_build_pass", fake)
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

    def test_tolerance_validation(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            evolve(params, field, grid, rtol=0.0)
        with pytest.raises(ValueError):
            evolve(params, field, grid, atol=-1e-9)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                evolve(params, field, grid, rtol=tol)
            with pytest.raises(ValueError, match="positive and finite"):
                evolve(params, field, grid, atol=tol)

    def test_propagate_fixed_validation(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="n_sub"):
            propagate_fixed(params, field, grid, n_sub=0)
        with pytest.raises(ValueError, match="init"):
            propagate_fixed(params, field, grid, init="both")
        with pytest.raises(ValueError, match="frame"):
            propagate_fixed(params, field, grid, frame="galilean")

    def test_every_entry_point_rejects_an_unknown_frame(self):
        # evolve used to integrate the rotating frame for any other name
        # and label the trajectory with it.
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        message = "^frame must be 'lab' or 'rotating', got 'bogus'$"
        with pytest.raises(ValueError, match=message):
            evolve(params, field, grid, frame="bogus")
        with pytest.raises(ValueError, match=message):
            propagate_fixed(params, field, grid, frame="bogus")
        with pytest.raises(ValueError, match=message):
            rhs(0.0, (1.0, 0.0), params, field, frame="bogus")


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


def chirped_pulse():
    """Damped, detuned system under a chirped Gaussian pulse."""
    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_g=0.02, gamma_e=0.1)
    field = FieldModel(
        carrier_omega=4.6,
        envelope=GaussianEnvelope(omega0=1.5, t_center=0.0, tau=3.0),
        phase=Chirp(phi0=0.2, beta=0.05, t_center=0.0),
    )
    return params, field


class TestBlockPropagator:
    """``propagate_fixed`` against the scalar loop across block seams."""

    @pytest.mark.parametrize("frame", ["lab", "rotating"])
    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("n_sub", [1, 3, 41, _BLOCK_SUBSTEPS + 3])
    def test_matches_scalar_rk4(self, frame, init, n_sub):
        params, field = chirped_pulse()
        # Over three blocks of substeps; n_sub > block also splits intervals.
        intervals = max(3, math.ceil(3.5 * _BLOCK_SUBSTEPS / n_sub))
        grid = np.linspace(-9.0, 9.0, intervals + 1)
        traj = propagate_fixed(params, field, grid, init, frame, n_sub)
        ref = reference_rk4(params, field, grid, init, frame, n_sub)
        assert np.max(np.abs(traj.c_g - ref[:, 0])) < 1e-12
        assert np.max(np.abs(traj.c_e - ref[:, 1])) < 1e-12

    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("n_sub", [1, 3, 41, _BLOCK_SUBSTEPS + 3])
    def test_constant_coupling_matches_scalar_rk4(self, init, n_sub):
        # One row of step matrices serves every block.
        params, field = time_independent()
        intervals = max(3, math.ceil(3.5 * _BLOCK_SUBSTEPS / n_sub))
        grid = np.linspace(-9.0, 9.0, intervals + 1)
        traj = propagate_fixed(params, field, grid, init, "rotating", n_sub)
        ref = reference_rk4(params, field, grid, init, "rotating", n_sub)
        assert np.max(np.abs(traj.c_g - ref[:, 0])) < 1e-12
        assert np.max(np.abs(traj.c_e - ref[:, 1])) < 1e-12


def hillis_steele_states(intervals, start, block):
    """The expansion ``propagate_fixed`` ran before the work-efficient scan:
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
    replaced, and the controller's reduced last state against both."""

    @pytest.mark.parametrize("name", list_shipped())
    def test_accepted_pass_matches_hillis_steele(self, name):
        sc = load_shipped(name)
        traj = evolve(sc.system, sc.field, sc.grid(), sc.initial_state,
                      **vars(sc.integrator))
        grid, h_out = uniform_grid(sc.grid())
        start = tdse._start(sc.initial_state)
        intervals = tdse._intervals(((sc.system, sc.field),), grid, h_out,
                                    sc.integrator.frame, traj.n_sub)[:, :, 0]
        states = tdse._expand(intervals, start)
        assert np.array_equal(states[0], traj.c_g) and np.array_equal(states[1], traj.c_e)
        block = max(1, _BLOCK_SUBSTEPS // traj.n_sub)
        assert relative_error(states, hillis_steele_states(intervals, start, block)) < 1e-13

    @pytest.mark.parametrize("frame", ["lab", "rotating"])
    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 63, 64, 65, 4095, 4096, 4097])
    def test_row_counts(self, frame, init, rows):
        params, field = chirped_pulse()
        grid = np.linspace(-9.0, 9.0, rows + 1)
        self.check_pass(params, field, grid, init, frame)

    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 63, 64, 65, 4095, 4096, 4097])
    def test_broadcast_intervals(self, init, rows):
        grid = np.linspace(-9.0, 9.0, rows + 1)
        intervals = self.check_pass(*time_independent(), grid, init, "rotating")
        assert intervals.strides[-1] == 0

    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 399, 400])
    def test_broadcast_last_state_by_squaring(self, monkeypatch, init, rows):
        broadcast_reduced = []
        pairwise = tdse._ordered_product

        def recording(m):
            broadcast_reduced.append(m.strides[-1] == 0)
            return pairwise(m)

        monkeypatch.setattr(tdse, "_ordered_product", recording)
        grid, h_out = uniform_grid(np.linspace(-9.0, 9.0, rows + 1))
        start = tdse._start(init)
        built = tdse._build_pass((time_independent(),), grid, h_out, start, "rotating", 2)
        assert built.intervals.strides[-1] == 0
        assert not any(broadcast_reduced)
        ref = tdse._apply(pairwise(built.intervals), start)
        assert relative_error(built.last, ref) < 1e-13

    def test_power_takes_logarithmic_products(self, monkeypatch):
        products = []
        original = tdse._mul

        def counting(p, q):
            products.append(1)
            return original(p, q)

        monkeypatch.setattr(tdse, "_mul", counting)
        m = np.array([[0.6 + 0.1j, 0.3j], [0.3j, 0.7 - 0.2j]])
        power = tdse._power(m, 400)
        # 400 = 0b110010000: eight squarings and two products.
        assert len(products) == 10
        ref = tdse._ordered_product(np.repeat(m[..., None], 400, axis=-1))
        assert np.max(np.abs(power - ref)) < 1e-13 * np.max(np.abs(ref))

    @staticmethod
    def check_pass(params, field, grid, init, frame, n_sub=2):
        grid, h_out = uniform_grid(grid)
        start = tdse._start(init)
        built = tdse._build_pass(((params, field),), grid, h_out, start, frame, n_sub)
        intervals = built.intervals[:, :, 0]
        states = tdse._expand(intervals, start)
        ref = hillis_steele_states(intervals, start, len(grid))
        assert states.shape == (2, len(grid))
        assert np.array_equal(states[:, 0], start)
        assert relative_error(states, ref) < 1e-13
        # The reduced last state is the expanded last point up to rounding,
        # and the last column of the expansion is its last point bitwise.
        assert relative_error(built.last, states[:, -1:]) < 1e-13
        assert np.array_equal(tdse._expand_last(intervals, start), states[:, -1:])
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
        traj = evolve(sc.system, sc.field, sc.grid(), sc.initial_state,
                      **vars(sc.integrator))
        assert len(traj.attempts) >= 2
        assert expanded == [len(traj.grid) - 1]


def time_independent(envelope=ConstantEnvelope, beta=0.0):
    """Damped, detuned system under a constant field; without chirp its
    rotating-frame coupling is time-independent."""
    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_g=0.02, gamma_e=0.1)
    field = FieldModel(carrier_omega=4.6, envelope=envelope(1.3),
                       phase=Chirp(phi0=0.2, beta=beta))
    return params, field


class _DisguisedConstant:
    """A constant envelope under another kind: ``propagate_fixed`` builds
    every step matrix for it."""

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


class TestTimeIndependentCoupling:
    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("n_sub, intervals", [
        (1, 3 * _BLOCK_SUBSTEPS + 5), (7, 2000), (64, 300), (_BLOCK_SUBSTEPS + 3, 3),
    ])
    def test_bitwise_equal_to_general_path(self, built, init, n_sub, intervals):
        grid = np.linspace(-9.0, 9.0, intervals + 1)
        fast = propagate_fixed(*time_independent(), grid, init, "rotating", n_sub)
        assert sum(built) == n_sub
        built.clear()
        general = propagate_fixed(*time_independent(_DisguisedConstant), grid, init,
                                  "rotating", n_sub)
        assert sum(built) == intervals * n_sub
        assert np.array_equal(fast.c_g, general.c_g)
        assert np.array_equal(fast.c_e, general.c_e)

    @pytest.mark.parametrize("frame, beta", [("rotating", 0.05), ("lab", 0.0)])
    def test_chirp_or_carrier_takes_general_path(self, built, frame, beta):
        # A chirp, or the carrier of the lab frame, makes the coupling of
        # the same envelope time-dependent again.
        grid = np.linspace(-9.0, 9.0, 301)
        propagate_fixed(*time_independent(beta=beta), grid, "ground", frame, 5)
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
    ``propagate_fixed``, with every operation in long double, so with the
    same ``n_sub`` the two differ only by the float64 rounding of
    ``propagate_fixed``.
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
    """Rounding error of ``propagate_fixed`` and of the lattice phase factor
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
        traj = propagate_fixed(sc.system, sc.field, grid, n_sub=n_sub)
        ref = long_double_rk4(sc.system, sc.field, grid, n_sub).astype(complex)
        err = max(np.max(np.abs(traj.c_g - ref[:, 0])), np.max(np.abs(traj.c_e - ref[:, 1])))
        assert err < bound

    @pytest.mark.parametrize("first, count", [(0, 2 * 400 * 82 + 1), (2 * 4097, 1001)])
    def test_chirp_factor_against_long_double(self, first, count):
        # The accepted pass of lz_survival(0.1, 1.0): phases reach 800 rad.
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


class TestLandauZener:
    def test_survival_matches_asymptotic_formula(self):
        for coupling in (0.1, 0.25):
            err = abs(lz_survival(coupling, 1.0) - lz_oracle(coupling, 1.0))
            assert err < 1e-4

    def test_faster_sweep(self):
        assert abs(lz_survival(0.3, 4.0) - lz_oracle(0.3, 4.0)) < 1e-4

    def test_sweep_direction_irrelevant(self):
        assert lz_survival(0.2, -1.0) == lz_survival(0.2, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="sweep_rate"):
            lz_survival(0.1, 0.0)
        with pytest.raises(ValueError, match="coupling"):
            lz_survival(0.0, 1.0)


def doubling_evolve(params, field, grid, init="ground", frame="rotating",
                    rtol=1e-10, atol=1e-12):
    """The plain doubling controller, as ``evolve`` ran before it predicted
    the accepted count: double ``n_sub`` from the rate heuristic until one
    halving changes the last point by less than ``rtol * max(1, |c|) + atol``.
    Like ``evolve`` it compares the reduced last states of the built passes
    and expands the accepted one. Returns the accepted pass and the number
    of passes run."""
    grid, h_out = uniform_grid(grid)
    start = tdse._start(init)
    span = float(grid[-1] - grid[0])
    rate = tdse._characteristic_rate(params, field, grid, frame)
    n_sub = max(1, math.ceil(h_out * rate / tdse._INITIAL_RADIANS_PER_STEP))
    prev, passes = None, 0
    while True:
        if h_out / n_sub < STEP_UNDERFLOW_FRACTION * span:
            raise StepUnderflow(
                f"substep {h_out / n_sub:.3e} below "
                f"{STEP_UNDERFLOW_FRACTION:.0e} of span {span:.3e}"
            )
        cur = tdse._build_pass(((params, field),), grid, h_out, start, frame, n_sub)
        last = cur.last[:, 0]
        passes += 1
        if prev is not None:
            err = max(abs(last[0] - prev[0]), abs(last[1] - prev[1]))
            scale = max(1.0, abs(last[0]), abs(last[1]))
            if err < rtol * scale + atol:
                states = tdse._expand(cur.intervals[:, :, 0], start)
                return tdse._trajectory(grid, states, frame, n_sub), passes
        n_sub *= 2
        prev = last


def random_case(rng, i):
    """Damped chirped two-level problem number ``i``: envelope kind, frame
    and tolerance cycle with ``i``, the rest is drawn from ``rng``."""
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
    frame = ("lab", "rotating")[i % 2]
    rtol = (1e-10, 1e-8, 1e-6)[i // 2 % 3]
    return params, field, grid, init, frame, rtol


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
        args = (sc.system, sc.field, sc.grid(), sc.initial_state,
                integ.frame, integ.rtol, integ.atol)
        new = evolve(*args)
        ref, passes = doubling_evolve(*args)
        assert _same_pass(new, ref)
        assert len(new.attempts) <= passes

    def test_random_scenarios_match_doubling(self):
        rng = np.random.default_rng(20111201)
        passes_new = passes_ref = 0
        for i in range(42):
            params, field, grid, init, frame, rtol = random_case(rng, i)
            new = evolve(params, field, grid, init, frame, rtol, 1e-12)
            ref, passes = doubling_evolve(params, field, grid, init, frame, rtol, 1e-12)
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
        traj = evolve(sc.system, sc.field, sc.grid(), sc.initial_state,
                      **vars(sc.integrator))
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
        lz_survival(coupling, 1.0)
        assert batches == [[[41, 82]]]

    def test_lz_couplings_run_as_one_batch(self, monkeypatch):
        # The three couplings of the validate check: one batch, each run
        # with the passes it takes alone, and the survivals of the runs alone.
        batches = self.record_batches(monkeypatch)
        couplings = (0.1, 0.25, 0.5)
        survivals = lz_survivals(couplings, 1.0)
        assert batches == [[[41, 82]] * 3]
        assert survivals == [lz_survival(coupling, 1.0) for coupling in couplings]

    def test_attempts_record(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 51)
        traj = evolve(params, field, grid, rtol=1e-6, atol=1e-9)
        assert traj.attempts[-1][0] == traj.n_sub
        assert traj.attempts[-1][1] < 1.0
        assert all(err >= 1.0 for _, err in traj.attempts[1:-1])
        assert propagate_fixed(params, field, grid).attempts == ()


def fake_pass(grid, last_g, last_e=0.0):
    """A built pass of one run with identity intervals and the given last
    state."""
    identity = np.broadcast_to(np.eye(2, dtype=complex)[:, :, None, None],
                               (2, 2, 1, len(grid) - 1))
    return tdse._Pass(identity, np.array([[last_g], [last_e]], dtype=complex))


def synthetic(order, amplitude, unit=1, bad=None, component="c_g"):
    """``_build_pass`` stand-in whose last ground amplitude is
    0.5 + amplitude (unit / n_sub)^order; from the second pass on, ``bad``
    replaces the last value of ``component`` when given."""
    calls = []

    def fake(runs, grid, h_out, start, frame, n_sub):
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
        fake = synthetic(order, amplitude)
        monkeypatch.setattr(tdse, "_build_pass", fake)
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
        monkeypatch.setattr(tdse, "_build_pass", synthetic(4, amplitude))
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
        monkeypatch.setattr(tdse, "_build_pass", synthetic(4, 1.0, bad=bad))
        with pytest.raises(StepUnderflow) as doubling:
            doubling_evolve(params, field, self.GRID)
        # With the ground amplitude converging, a NaN in the excited one
        # alone must still count as a non-finite difference.
        monkeypatch.setattr(tdse, "_build_pass",
                            synthetic(4, 1.0, bad=bad, component=component))
        with pytest.raises(StepUnderflow) as predicted:
            evolve(params, field, self.GRID)
        assert str(predicted.value) == str(doubling.value)

    def test_jump_past_underflow_limit(self, monkeypatch):
        # n0 = 1e11 on a one-interval grid of span 1: 8 n0 is the last count
        # above 1e-12 of the span, and the predicted jump of 2^5 would pass it.
        unit = 10**11
        params, field = resonant(0.2 * unit)
        grid = np.array([0.0, 1.0])
        fake = synthetic(4, 1.0, unit=unit)
        monkeypatch.setattr(tdse, "_build_pass", fake)
        with pytest.raises(StepUnderflow) as doubling:
            doubling_evolve(params, field, grid)
        fake.calls.clear()
        with pytest.raises(StepUnderflow, match="substep 6.250e-13 below 1e-12 of span 1.000e"):
            evolve(params, field, grid)
        assert fake.calls == [unit, 2 * unit, 8 * unit]
        assert str(doubling.value).startswith("substep 6.250e-13")
