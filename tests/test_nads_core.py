"""Dressed-state quantity contracts: definitions on small grids, branch
continuity, grid series construction.

Frozen constants marked 'oracle' regenerate with ``python3 tests/oracles.py``.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nads.errors import (
    BranchAmbiguity,
    DegenerateRabi,
    NumericalError,
    ValidationError,
)
from nads.field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import _track_branches, detuning, snapshot_series, uniform_grid
from nads.scenario import load_shipped


def constant_series(omega0=3.0, delta=4.0, gamma_g=0.0, gamma_e=0.0,
                    phase=None, n=3):
    """Series of a constant envelope at static detuning ``delta`` on [0, 1].

    The excited level is at 5, raised where needed to keep the carrier at
    1 or above.
    """
    omega_e = max(5.0, delta + 1.0)
    params = SystemParams(0.0, omega_e, gamma_g=gamma_g, gamma_e=gamma_e)
    field = FieldModel(
        carrier_omega=omega_e - delta,
        envelope=ConstantEnvelope(omega0),
        phase=phase or Chirp(),
    )
    return snapshot_series(params, field, np.linspace(0.0, 1.0, n))


class TestDetuning:
    def test_values(self):
        env = ConstantEnvelope(1.0)
        assert detuning(SystemParams(0.0, 5.0), FieldModel(5.0, env)) == 0.0
        assert detuning(SystemParams(0.0, 5.0), FieldModel(4.0, env)) == 1.0
        assert detuning(SystemParams(1.0, 3.0), FieldModel(2.5, env)) == -0.5


class TestNonadiabaticDetuning:
    def test_all_factors_off(self):
        series = constant_series(omega0=1.0, delta=1.0)
        assert np.all(series.delta_tilde == 1.0 + 0.0j)
        assert np.all(series.d_delta_tilde == 0.0 + 0.0j)

    def test_direct_substitution(self):
        # dphi = 0.2 at t = 1 for a chirp beta = 0.2 centred at t = 0.
        series = constant_series(
            omega0=1.0, delta=1.0, gamma_g=0.1, gamma_e=0.3,
            phase=Chirp(beta=0.2, t_center=0.0),
        )
        assert series.delta_tilde[-1] == pytest.approx(0.8 - 0.2j, rel=1e-15)
        assert np.all(series.d_delta_tilde == -0.2 + 0.0j)

    def test_gaussian_wing(self):
        params = SystemParams(0.0, 5.0)
        field = FieldModel(
            carrier_omega=4.0,
            envelope=GaussianEnvelope(omega0=1.0, t_center=0.0, tau=10.0),
        )
        series = snapshot_series(params, field, np.array([5.0, 6.0]))
        assert series.omega[0] == pytest.approx(math.exp(-0.25), rel=1e-15)
        assert series.delta_tilde[0] == pytest.approx(1.0 - 0.1j, rel=1e-15)
        assert series.d_delta_tilde[0] == pytest.approx(-0.02j, rel=1e-15)


class TestNonadiabaticRabi:
    def test_pythagorean(self):
        assert np.all(constant_series(omega0=3.0, delta=4.0).omega_tilde == 5.0)

    def test_field_free_negative_detuning(self):
        # omega_tilde -> sgn(delta) |delta| as Omega -> 0. (At Omega = 0
        # exactly SIN vanishes at every point, an ambiguous branch.)
        series = constant_series(omega0=1e-4, delta=-2.0)
        assert series.sign_delta == -1
        assert np.all(series.omega_tilde == -math.sqrt(1e-8 + 4.0))
        np.testing.assert_allclose(series.omega_tilde, -2.0, rtol=1e-8)

    def test_complex_value_against_oracle(self):
        # Omega = 3, delta_tilde = 4 - 0.2i and d_delta_tilde = -0.02i at the
        # pulse centre: gamma = 0.2 and dlog_deriv = -2/tau^2.
        # oracle: sqrt(24.92 - 1.6j) = 4.994562620462607597 - 0.1601741855678049753j
        params = SystemParams(0.0, 5.0, gamma_g=0.1, gamma_e=0.3)
        field = FieldModel(
            carrier_omega=1.0,
            envelope=GaussianEnvelope(omega0=3.0, t_center=0.0, tau=10.0),
        )
        series = snapshot_series(params, field, np.array([0.0, 0.05]))
        assert series.delta_tilde[0] == pytest.approx(4.0 - 0.2j, rel=1e-15)
        assert series.d_delta_tilde[0] == pytest.approx(-0.02j, rel=1e-15)
        assert series.omega_tilde[0] == pytest.approx(
            4.994562620462608 - 0.16017418556780498j, rel=1e-15
        )

    def test_sign_delta_ignored_under_continuation(self):
        # The detuning sign picks the first root only; later samples follow
        # the previous root, here back onto the principal one.
        principal = cmath.sqrt(24.92 - 1.6j)
        roots, _, _ = _track_branches(
            np.array([[[-principal, principal]]]), (-1,), ("x",)
        )
        assert roots.tolist() == [[[principal, principal]]]


class TestLambdas:
    def test_static_real(self):
        series = constant_series(omega0=3.0, delta=4.0)
        assert np.all(series.lambda1 == 4.5) and np.all(series.lambda2 == -0.5)
        assert np.all(series.lambda_t1 == 4.5) and np.all(series.lambda_t2 == -0.5)

    def test_resonant_symmetric_splitting(self):
        omega = 0.75
        series = constant_series(omega0=omega, delta=0.0)
        assert np.all(series.lambda1 == omega / 2)
        assert np.all(series.lambda2 == -omega / 2)
        assert np.array_equal(series.lambda_t1, series.lambda1)
        assert np.array_equal(series.lambda_t2, series.lambda2)

    def test_derivative_shift(self, flagship):
        _, series = flagship
        shift = -1j * series.d_omega_tilde / (2.0 * series.omega_tilde)
        assert np.min(np.abs(shift)) > 0.0
        np.testing.assert_allclose(series.lambda_t1, series.lambda1 + shift, rtol=1e-15)
        np.testing.assert_allclose(series.lambda_t2, series.lambda2 + shift, rtol=1e-15)
        np.testing.assert_allclose(
            series.lambda_t1 - series.lambda_t2, series.omega_tilde, rtol=1e-14
        )

    @pytest.mark.parametrize("scale, degenerate", [(1e-13, True), (1e-11, False)])
    def test_degenerate_rabi(self, scale, degenerate):
        # Omega = 3 scale and delta = 4 scale: |omega_tilde| = 5 scale
        # everywhere, against RABI_DEGENERACY_FLOOR = 1e-12. delta is
        # 5 - (5 - 4 scale), exact to 1e-16.
        if degenerate:
            with pytest.raises(DegenerateRabi, match="grid index 0"):
                constant_series(omega0=3 * scale, delta=4 * scale)
        else:
            series = constant_series(omega0=3 * scale, delta=4 * scale)
            np.testing.assert_allclose(np.abs(series.omega_tilde), 5 * scale, rtol=1e-5)


class TestMixingFunctions:
    def test_static_real(self):
        series = constant_series(omega0=3.0, delta=4.0)
        assert series.cos_half[0] == pytest.approx(math.sqrt(0.9), rel=1e-15)
        assert series.sin_half[0] == pytest.approx(math.sqrt(0.1), rel=1e-15)

    def test_weak_field_limit(self):
        # COS -> 1 and SIN -> Omega / (2 delta) as Omega -> 0.
        # Omega must stay above sqrt(eps) delta or SIN drowns in the
        # roundoff of delta - omega_tilde.
        series = constant_series(omega0=1e-4, delta=5.0)
        assert np.all(np.abs(series.cos_half - 1.0) < 1e-9)
        np.testing.assert_allclose(series.sin_half, 1e-5, rtol=1e-5)

    def test_complex_values_against_oracle(self):
        # oracle: omega_tilde = sqrt(9 + (4 - 0.2i)^2) = 4.998561266903532088 - 0.1600460527105987573j
        #         cos_half = 0.9488728062684164050 - 0.003787300259648448881j
        #         sin_half = 0.3158863163842142597 + 0.01137645424685863833j
        series = constant_series(omega0=3.0, delta=4.0, gamma_g=0.1, gamma_e=0.3)
        assert np.all(series.d_omega_tilde == 0.0)
        assert series.omega_tilde[0] == pytest.approx(
            4.998561266903532 - 0.16004605271059876j, rel=1e-15
        )
        c, s = series.cos_half[0], series.sin_half[0]
        assert c == pytest.approx(0.9488728062684164 - 0.003787300259648449j, rel=1e-15)
        assert s == pytest.approx(0.3158863163842143 + 0.011376454246858638j, rel=1e-15)
        assert c * c + s * s == pytest.approx(1.0, abs=1e-15)

    def test_negative_detuning_flips_sin(self):
        pos = constant_series(omega0=3.0, delta=4.0)
        neg = constant_series(omega0=3.0, delta=-4.0)
        assert np.array_equal(neg.cos_half, pos.cos_half)
        assert np.array_equal(neg.sin_half, -pos.sin_half)

    def test_continuation(self):
        # COS and SIN are tracked as independent rows: a principal root that
        # changes sign flips only its own row back.
        c = 0.9487418497131219 - 0.010540275000015836j
        s = 0.3177895453534113 + 0.03146736620576702j
        principal = np.array([[[c, c, c]], [[s, -s, -s]]])
        roots, signs, _ = _track_branches(principal, (1, 1), ("COS", "SIN"))
        assert signs.tolist() == [[[1, 1, 1]], [[1, -1, -1]]]
        assert roots.tolist() == [[[c] * 3], [[s] * 3]]


@given(
    omega=st.floats(min_value=1e-3, max_value=1e3),
    delta=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from([1, -1]),
    gamma=st.floats(min_value=0.0, max_value=10.0),
    beta=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_trig_identity_property(omega, delta, sign, gamma, beta):
    """COS^2 + SIN^2 = 1 whenever Lambda'_1 - Lambda'_2 = omega_tilde."""
    try:
        series = constant_series(
            omega0=omega, delta=sign * delta, gamma_e=gamma,
            phase=Chirp(beta=beta, t_center=0.5), n=5,
        )
    except NumericalError:
        assume(False)
    ratios = np.stack([series.lambda_t1, series.lambda_t2]) / series.omega_tilde
    scale = np.maximum(1.0, np.max(np.abs(ratios), axis=0))
    dev = np.abs(series.cos_half**2 + series.sin_half**2 - 1.0)
    assert np.all(dev < 1e-12 * scale)


class TestNadsFrequencies:
    def test_unperturbed_limit(self):
        # omega_G = omega_g + Lambda_2 -> 0 as Omega -> 0 (Lambda_2 ~ -Omega^2 / 4 delta).
        series = constant_series(omega0=1e-6, delta=5.0)
        assert np.all(np.abs(series.omega_G) < 1e-12)

    def test_symmetric_light_shift(self):
        series = constant_series(omega0=3.0, delta=4.0)
        assert np.all(series.omega_G == -0.5 + 0.0j)
        assert np.all(series.omega_E == 5.5 + 0.0j)

    def test_full_substitution(self, flagship):
        _, series = flagship
        params = series.params
        np.testing.assert_array_equal(series.omega_G, params.omega_g + series.lambda2)
        np.testing.assert_array_equal(
            series.omega_E,
            params.omega_e - series.lambda2 - 1j * params.gamma_sum_half
            - (series.dphi - 1j * series.log_deriv),
        )


class TestUniformGrid:
    # A step may differ from the first by 1e-9 of it; the steps here are
    # 1 and 1 + eps.
    def test_step_within_bound(self):
        grid, h = uniform_grid([0.0, 1.0, 2.0 + 0.9e-9])
        assert h == 1.0 and grid.dtype == float

    def test_step_beyond_bound(self):
        with pytest.raises(ValidationError, match="uniformly increasing"):
            uniform_grid([0.0, 1.0, 2.0 + 1.1e-9])

    def test_decreasing_nan_and_infinite_steps(self):
        for grid in ([0.0, -1.0, -2.0], [0.0, 1.0, math.nan], [0.0, math.inf],
                     [0.0, 1.0, math.inf]):
            with pytest.raises(ValidationError, match="uniformly increasing"):
                uniform_grid(grid)


class TestSnapshotSeries:
    def test_static_series_is_constant_and_real(self):
        params = SystemParams(0.0, 5.0)
        field = FieldModel(carrier_omega=1.0, envelope=ConstantEnvelope(3.0))
        series = snapshot_series(params, field, np.linspace(0.0, 10.0, 101))
        for arr in (series.omega_tilde, series.cos_half, series.sin_half,
                    series.lambda1, series.lambda2, series.omega_G, series.omega_E):
            assert np.all(arr == arr[0])
            assert np.all(arr.imag == 0.0)
        assert series.omega_tilde[0] == pytest.approx(5.0, rel=1e-15)

    def test_negative_detuning_sign_convention(self):
        params = SystemParams(1.0, 3.0)
        field = FieldModel(carrier_omega=2.5, envelope=ConstantEnvelope(1.0))
        series = snapshot_series(params, field, np.linspace(0.0, 1.0, 11))
        assert series.sign_delta == -1 and series.delta == -0.5
        assert series.omega_tilde[0].real < 0

    def test_gaussian_imag_detuning_antisymmetry(self):
        params = SystemParams(0.0, 5.0)
        field = FieldModel(
            carrier_omega=4.0,
            envelope=GaussianEnvelope(omega0=1.0, t_center=0.0, tau=10.0),
        )
        grid = np.linspace(-20.0, 20.0, 81)
        series = snapshot_series(params, field, grid)
        np.testing.assert_allclose(
            series.delta_tilde.imag, field.envelope.log_deriv(grid), rtol=0, atol=0
        )
        np.testing.assert_allclose(
            series.delta_tilde.imag, -series.delta_tilde.imag[::-1], atol=1e-15
        )

    def test_flagship_spot_values(self, flagship):
        _, series = flagship
        k = 1200  # t = 0 on the [-60, 60] grid with step 0.05
        assert series.grid[k] == 0.0
        # oracle spot values at t = 0:
        assert series.delta_tilde[k] == pytest.approx(0.5 - 0.1j, rel=1e-15)
        assert series.omega_tilde[k] == pytest.approx(
            2.056788325709172 - 0.019447796110087393j, rel=1e-13
        )
        assert series.lambda2[k] == pytest.approx(
            -0.7783941628545861 - 0.040276101944956303j, rel=1e-13
        )
        # grid finite differences shift the tilde quantities at ~1e-8:
        assert series.d_omega_tilde[k] == pytest.approx(
            -0.0026669377626580778 - 0.0007545093690238590j, abs=1e-6
        )
        assert series.cos_half[k] == pytest.approx(
            0.7885951987052613 - 0.014484578714177541j, abs=1e-8
        )
        assert series.sin_half[k] == pytest.approx(
            0.6153632823252172 + 0.018562155977372896j, abs=1e-8
        )
        assert series.omega_G[k] == pytest.approx(
            series.params.omega_g + series.lambda2[k], rel=1e-15
        )

    def test_branch_continuity_on_flagship(self, flagship):
        _, series = flagship
        for arr in (series.omega_tilde, series.cos_half, series.sin_half):
            jump = np.abs(np.diff(arr))
            flip = np.abs(arr[1:] + arr[:-1])
            assert np.all(jump < flip)

    def test_branch_log_values(self, flagship):
        _, series = flagship
        assert set(series.branch_log) == {"omega_tilde", "cos_half", "sin_half"}
        for log in series.branch_log.values():
            assert log.dtype == np.int8
            assert set(np.unique(log)).issubset({-1, 1})
        # The chirp drives the continued root off the principal sheet late
        # in this scenario; continuity above already certified the choice.
        assert series.branch_log["omega_tilde"].min() == -1

    def test_two_point_grid(self):
        params = SystemParams(0.0, 5.0, gamma_g=0.05, gamma_e=0.15)
        field = FieldModel(
            carrier_omega=4.5,
            envelope=GaussianEnvelope(omega0=2.0, t_center=0.0, tau=20.0),
            phase=Chirp(beta=0.01, t_center=0.0),
        )
        series = snapshot_series(params, field, np.array([0.0, 0.05]))
        assert len(series) == 2
        assert series.d_omega_tilde[0] == series.d_omega_tilde[1]
        assert np.all(np.isfinite(series.cos_half))

    def test_vanishing_sin_is_ambiguous_by_name(self):
        # 30 tau before a sech peak, Omega^2 / delta^2 ~ 1e-25 cancels in
        # -Lambda'_2: SIN(theta/2) is 0 at consecutive points, and both of
        # its roots are equidistant from the previous one.
        params = SystemParams(0.0, 5.0)
        field = FieldModel(carrier_omega=4.0,
                           envelope=SechEnvelope(omega0=1.0, t_center=30.0, tau=1.0))
        with pytest.raises(BranchAmbiguity, match=r"^SIN\(theta/2\): both roots "
                                                  r".*\(grid index 1\)$"):
            snapshot_series(params, field, np.linspace(0.0, 20.0, 5))

    def test_step_and_length(self, flagship):
        _, series = flagship
        assert series.step == pytest.approx(0.05)
        assert len(series) == 2401

    def test_arrays_are_frozen(self, flagship):
        _, series = flagship
        with pytest.raises(ValueError):
            series.omega_tilde[0] = 0.0

    def test_every_reachable_array_is_frozen(self, flagship):
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict) or dataclasses.is_dataclass(obj):
                for value in (obj if isinstance(obj, dict) else vars(obj)).values():
                    yield from arrays(value)

        _, series = flagship
        found = list(arrays(series))
        assert len(found) == 20  # 17 array fields and 3 branch logs
        assert not any(arr.flags.writeable for arr in found)

    def test_caller_grid_stays_writeable(self):
        params = SystemParams(0.0, 5.0)
        field = FieldModel(carrier_omega=1.0, envelope=ConstantEnvelope(1.0))
        grid = np.linspace(0.0, 1.0, 11)
        series = snapshot_series(params, field, grid)
        assert series.grid is not grid
        assert not series.grid.flags.writeable
        grid[0] = 0.5
        assert series.grid[0] == 0.0


# oracle: section 5 of tests/oracles.py, three shipped scenarios at the
# grid cells SPOT_CELLS names (both ends and the centre), exact
# d omega_tilde/dt, on the branches the package records there. Each cell is
# (oracle value, measured relative error of snapshot_series); the ratchet
# bounds the error at 1.5 times that, and at 1e-15 for cells at rounding.
# The largest errors sit at the grid ends, where the grid derivative is
# one-sided, O(h^2).
SPOT_ORACLES = {
    "sech-damped": {
        "omega_tilde": [
            (0.8018759346343401957393689499451083795794
             + 0.006606461703038837084909959446397251121041j, 2.8e-16),
            (1.696558746519458663646605440470107850716
             - 0.02829256581799683909622174300003588656122j, 1.4e-16),
            (0.8018304685073000871165827117977918281798
             - 0.1263328928387160698323772616577160501886j, 4.2e-16),
        ],
        "cos_half": [
            (0.9994103412415775102921737632627005220767
             - 0.00008740239251806309803289061795419643770618j, 8.1e-10),
            (0.8577295351175038287217360345079259424018
             - 0.008008433726699136449749784559035269009236j, 9.0e-11),
            (0.9994123636036846090101264135099529581793
             - 0.00009294159196069340924467511509221749130326j, 7.8e-10),
        ],
        "sin_half": [
            (0.03442984421184286553057576219570194545893
             + 0.00253706796912434436872619048500826133163j, 6.8e-7),
            (0.5143369914716144099129804939411822611052
             + 0.01335519367908439474978751684026636155783j, 2.5e-10),
            (0.03438363204647640773764498499838256691842
             + 0.002701488195690622356997203807096585092442j, 6.6e-7),
        ],
    },
    "sech-chirped": {
        "omega_tilde": [
            (3.200730398287605358394165333890679062642
             + 0.1155315599571701128656569091347428637072j, 1.4e-16),
            (1.55596677896158425710969584732436088154
             + 0.03213436217023144129420743064128519794326j, 0),
            (0.8105727556785677146802907843169216190434
             + 0.1603142260442016774988026604955899559903j, 1.4e-16),
        ],
        "cos_half": [
            (0.9999923952460297533786549972089476928753
             - 0.000001221417029730848248620770533235363625641j, 1.1e-11),
            (0.9403998996797823484582475705734269638757
             + 0.00004337473538253270496284568601929943636089j, 5.4e-9),
            (0.02441343911812750947657524129944848038106
             + 0.05538559411943599297933644648158808290834j, 1.8e-6),
        ],
        "sin_half": [
            (0.003912405045522271243505196482682976601558
             + 0.0003121884689707006080756391703633290926474j, 7.1e-7),
            (0.3400706469989745610070898216012550693358
             - 0.0001199444796612918413384234830667892837616j, 4.1e-8),
            (1.001235922164558087811197410002933876081
             - 0.001350483737272401420880320680889872464078j, 6.5e-9),
        ],
    },
    "gaussian-chirped-damped": {
        "omega_tilde": [
            (1.097241613486803896025785618378944882367
             + 0.2096165486005476967539827904414424977201j, 0),
            (2.056788325709172127578880054247507639456
             - 0.01944779611008739319632663509205491691955j, 0),
            (-0.119748970561474647395289650456621656163
             - 0.4175401238571138122018206440027453216981j, 1.3e-16),
        ],
        "cos_half": [
            (1.000029601200774896067734799891174345383
             + 0.000005331457634366040149802428392210928211245j, 9.2e-12),
            (0.7885951987052612674257374361884233057512
             - 0.01448457871417754130664728560458410538327j, 1.6e-9),
            (0.9994061863285072099216856961778820032763
             + 0.001227304995276112694521405579465349334192j, 2.8e-9),
        ],
        "sin_half": [
            (0.000690153992660417098817536152564685012451
             - 0.007725254810685797643965445151755990888892j, 1.5e-7),
            (0.6153632823252172423038344481032585502059
             + 0.01856215597737289557322426663337073688911j, 2.5e-9),
            (-0.04424249013817346868138873665832010182282
             + 0.02772394141830880661037786407738330608823j, 1.0e-6),
        ],
    },
}

#: Each scenario's oracle cells, their times and the branch-log signs
#: (omega_tilde, cos_half, sin_half) the package records there.
SPOT_CELLS = {
    "sech-damped": ([0, 1600, 3200], [-60.0, 0.0, 60.0],
                    {"omega_tilde": [1, 1, 1], "cos_half": [1, 1, 1], "sin_half": [1, 1, 1]}),
    "sech-chirped": ([0, 1600, 3200], [-40.0, 0.0, 40.0],
                     {"omega_tilde": [1, 1, 1], "cos_half": [1, 1, 1], "sin_half": [1, 1, 1]}),
    "gaussian-chirped-damped": ([0, 1200, 2400], [-60.0, 0.0, 60.0],
                                {"omega_tilde": [1, 1, -1], "cos_half": [1, 1, 1],
                                 "sin_half": [1, 1, -1]}),
}


@pytest.mark.parametrize("scenario, quantity", [
    (scenario, quantity) for scenario in SPOT_ORACLES for quantity in sorted(SPOT_ORACLES[scenario])
])
def test_shipped_scenario_against_oracle(scenario, quantity):
    shipped = load_shipped(scenario)
    series = snapshot_series(shipped.system, shipped.field, shipped.grid())
    cells, times, signs = SPOT_CELLS[scenario]
    assert series.grid[cells].tolist() == times
    assert series.branch_log[quantity][cells].tolist() == signs[quantity]
    values = getattr(series, quantity)[cells]
    for value, (expected, measured) in zip(values, SPOT_ORACLES[scenario][quantity]):
        assert abs(value - expected) <= max(1e-15, 1.5 * measured) * abs(expected)
