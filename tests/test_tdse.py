"""Amplitude-equation integrator: RHS conventions, closed-form oracles,
convergence order, frame consistency, agreement of the block propagator
with a scalar RK4 loop, and the predictive substep controller against the
plain doubling controller."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nads import tdse
from nads.errors import StepUnderflow
from nads.field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import uniform_grid
from nads.scenario import list_shipped, load_shipped
from nads.tdse import (
    _BLOCK_SUBSTEPS,
    STEP_UNDERFLOW_FRACTION,
    Trajectory,
    evolve,
    lz_oracle,
    lz_survival,
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

    def test_propagate_fixed_validation(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="n_sub"):
            propagate_fixed(params, field, grid, n_sub=0)
        with pytest.raises(ValueError, match="init"):
            propagate_fixed(params, field, grid, init="both")
        with pytest.raises(ValueError, match="frame"):
            propagate_fixed(params, field, grid, frame="galilean")


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


class TestBlockPropagator:
    """``propagate_fixed`` against the scalar loop across block seams."""

    @pytest.mark.parametrize("frame", ["lab", "rotating"])
    @pytest.mark.parametrize("init", ["ground", "excited"])
    @pytest.mark.parametrize("n_sub", [1, 3, 41, _BLOCK_SUBSTEPS + 3])
    def test_matches_scalar_rk4(self, frame, init, n_sub):
        params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_g=0.02, gamma_e=0.1)
        field = FieldModel(
            carrier_omega=4.6,
            envelope=GaussianEnvelope(omega0=1.5, t_center=0.0, tau=3.0),
            phase=Chirp(phi0=0.2, beta=0.05, t_center=0.0),
        )
        # Over three blocks of substeps; n_sub > block also splits intervals.
        intervals = max(3, math.ceil(3.5 * _BLOCK_SUBSTEPS / n_sub))
        grid = np.linspace(-9.0, 9.0, intervals + 1)
        traj = propagate_fixed(params, field, grid, init, frame, n_sub)
        ref = reference_rk4(params, field, grid, init, frame, n_sub)
        assert np.max(np.abs(traj.c_g - ref[:, 0])) < 1e-12
        assert np.max(np.abs(traj.c_e - ref[:, 1])) < 1e-12


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
        with pytest.raises(ValueError, match="window"):
            lz_survival(0.1, 1.0, window=-5.0)


def doubling_evolve(params, field, grid, init="ground", frame="rotating",
                    rtol=1e-10, atol=1e-12):
    """The plain doubling controller, as ``evolve`` ran before it predicted
    the accepted count: double ``n_sub`` from the rate heuristic until one
    halving changes the last point by less than ``rtol * max(1, |c|) + atol``.
    Returns the accepted pass and the number of passes run."""
    grid, h_out = uniform_grid(grid)
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
        cur = tdse.propagate_fixed(params, field, grid, init, frame, n_sub)
        passes += 1
        if prev is not None:
            err = max(abs(cur.c_g[-1] - prev.c_g[-1]), abs(cur.c_e[-1] - prev.c_e[-1]))
            scale = max(1.0, abs(cur.c_g[-1]), abs(cur.c_e[-1]))
            if err < rtol * scale + atol:
                return cur, passes
        n_sub *= 2
        prev = cur


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
        args = (sc.system, sc.field, sc.grid(), sc.initial_state, sc.frame, sc.rtol, sc.atol)
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

    @pytest.mark.parametrize("name, n_sub", [
        ("constant-detuned", 64), ("constant-damped", 32), ("sech-chirped", 16),
    ])
    def test_three_passes_where_doubling_takes_more(self, name, n_sub):
        sc = load_shipped(name)
        traj = evolve(sc.system, sc.field, sc.grid(), sc.initial_state,
                      sc.frame, sc.rtol, sc.atol)
        assert [n for n, _ in traj.attempts] == [1, 2, n_sub]
        assert traj.attempts[0][1] is None
        assert traj.attempts[1][1] > 1.0 > traj.attempts[2][1]

    def test_attempts_record(self):
        params, field = resonant(0.2)
        grid = np.linspace(0.0, math.pi / 0.2, 51)
        traj = evolve(params, field, grid, rtol=1e-6, atol=1e-9)
        assert traj.attempts[-1][0] == traj.n_sub
        assert traj.attempts[-1][1] < 1.0
        assert all(err >= 1.0 for _, err in traj.attempts[1:-1])
        assert propagate_fixed(params, field, grid).attempts == ()


def synthetic(order, amplitude, unit=1, bad=None, component="c_g"):
    """``propagate_fixed`` stand-in whose last ground amplitude is
    0.5 + amplitude (unit / n_sub)^order; from the second pass on, ``bad``
    replaces the last value of ``component`` when given."""
    calls = []

    def fake(params, field, grid, init="ground", frame="rotating", n_sub=1):
        grid, _ = uniform_grid(grid)
        c_g = np.zeros(len(grid), dtype=complex)
        c_e = np.zeros(len(grid), dtype=complex)
        c_g[-1] = 0.5 + amplitude * (unit / n_sub) ** order
        amplitudes = {"c_g": c_g, "c_e": c_e}
        if bad is not None and calls:
            amplitudes[component][-1] = bad
        calls.append(n_sub)
        return Trajectory(grid=grid, norm=np.abs(c_g) ** 2 + np.abs(c_e) ** 2,
                          frame=frame, n_sub=n_sub, **amplitudes)

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
        monkeypatch.setattr(tdse, "propagate_fixed", fake)
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
        monkeypatch.setattr(tdse, "propagate_fixed", synthetic(4, amplitude))
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
        monkeypatch.setattr(tdse, "propagate_fixed", synthetic(4, 1.0, bad=bad))
        with pytest.raises(StepUnderflow) as doubling:
            doubling_evolve(params, field, self.GRID)
        # With the ground amplitude converging, a NaN in the excited one
        # alone must still count as a non-finite difference.
        monkeypatch.setattr(tdse, "propagate_fixed",
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
        monkeypatch.setattr(tdse, "propagate_fixed", fake)
        with pytest.raises(StepUnderflow) as doubling:
            doubling_evolve(params, field, grid)
        fake.calls.clear()
        with pytest.raises(StepUnderflow, match="substep 6.250e-13 below 1e-12 of span 1.000e"):
            evolve(params, field, grid)
        assert fake.calls == [unit, 2 * unit, 8 * unit]
        assert str(doubling.value).startswith("substep 6.250e-13")
