"""Overlaps, transition probability and amplitude ratios.

Frozen constants marked 'oracle' regenerate with ``python3 tests/oracles.py``.
The oracle integrates the same integrands with adaptive high-precision
quadrature, so agreement budgets the trapezoid error of the implementation
(about 1e-7 relative at the flagship step; 5e-6 asserted).
"""

from __future__ import annotations

import cmath
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nads.field_model import ConstantEnvelope, FieldModel, SystemParams
from nads.nads_core import snapshot_series
from nads.scenario import load_shipped
from nads.overlap_transitions import (
    amplitude_ratios,
    eg_overlap,
    ge_overlap,
    mixing_probability,
    norms,
    p_via_overlaps,
)
from nads.tdse import _diagonal

from reference import expanded_overlaps


def static_series(omega0=3.0, carrier=1.0, omega_e=5.0, gamma_g=0.0, gamma_e=0.0,
                  span=10.0, n=101):
    params = SystemParams(0.0, omega_e, gamma_g=gamma_g, gamma_e=gamma_e)
    field = FieldModel(carrier_omega=carrier, envelope=ConstantEnvelope(omega0))
    return snapshot_series(params, field, np.linspace(0.0, span, n))


def ground_like_ratio(params, field):
    """|b_e/b_g| of the ground-like eigenvector (the smaller ratio) of the
    rotating-frame generator [[d1, i k], [i k, d2]] of a constant, unchirped
    field, k = mu Omega / 2."""
    d1, d2 = _diagonal(params, field)
    k = 0.5 * params.mu * field.envelope.omega0
    _, vectors = np.linalg.eig(np.array([[d1, 1j * k], [1j * k, d2]]))
    return float(np.min(np.abs(vectors[1] / vectors[0])))


complex_pairs = st.tuples(
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
)


class TestTransitionProbability:
    def test_real_mixing_is_adiabatic(self):
        assert mixing_probability(0.31623, 0.94868) == 0.0

    def test_direct_substitution(self):
        p = mixing_probability(0.3162j, 0.94868)
        bracket = abs(2 * 0.3162 * 0.94868) ** 2
        assert p == pytest.approx(bracket / (0.3162**2 + 0.94868**2) ** 2, rel=1e-12)

    def test_maximal_mixing(self):
        p = mixing_probability(0.5 + 0.5j, 0.5 - 0.5j)
        assert p == pytest.approx(1.0, rel=1e-15)

    @given(pair=complex_pairs)
    @settings(max_examples=500, deadline=None)
    def test_bound_and_microreversibility(self, pair):
        s, c = pair
        forward = mixing_probability(s, c)
        reverse = mixing_probability(c, s)
        assert 0.0 <= forward <= 1.0 + 1e-12
        assert forward == reverse  # expression symmetric in s <-> c, exactly


class TestStaticOverlaps:
    def test_real_static_norms_stay_one(self):
        series = static_series()
        gg, ee = norms(series)
        np.testing.assert_allclose(gg, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ee, 1.0, rtol=0, atol=1e-12)
        assert np.all(np.abs(eg_overlap(series)) < 1e-15)
        assert np.all(p_via_overlaps(series) < 1e-30)

    def test_weak_field_ground_state_does_not_decay(self):
        # gamma_g only, Omega -> 0: Lambda_2 -> 0 so gg stays at 1. Omega must
        # stay above sqrt(eps)*delta or the mixing drowns in sqrt roundoff.
        series = static_series(omega0=1e-4, carrier=1.0, omega_e=5.0, gamma_g=0.1)
        gg, _ = norms(series)
        assert gg[100] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_damping_real_rabi_keeps_ee_over_gg_unity(self):
        series = static_series(gamma_g=0.2, gamma_e=0.2)
        # gamma_g = gamma_e makes delta_tilde complex, but the ee/gg ratio
        # depends only on the +-Im omega_tilde split of the exponents.
        gg, ee = norms(series)
        ratio = ee[80] / gg[80]
        expected = math.exp(
            2.0 * np.trapezoid(series.omega_tilde.imag[:81], series.grid[:81])
        )
        assert ratio == pytest.approx(expected, rel=1e-12)


class TestFlagshipOverlaps:
    def test_values_against_quadrature_oracle(self, flagship):
        _, series = flagship
        gg, ee = norms(series)
        eg = eg_overlap(series)
        p = mixing_probability(series.sin_half, series.cos_half)
        k = 1200  # t = 0
        assert gg[k] == pytest.approx(0.2942519908684480, rel=5e-6)
        assert ee[k] == pytest.approx(1374.0735006019437, rel=5e-6)
        assert eg[k] == pytest.approx(
            -0.4583443515165936 + 0.8276412957297821j, rel=5e-6
        )
        assert p[k] == pytest.approx(0.0022137443285869459, rel=1e-6)

    def test_norms_real_positive(self, flagship):
        _, series = flagship
        for norm in norms(series):
            assert norm.dtype == np.float64 and np.all(norm > 0.0)

    def test_expanded_forms_match_concise(self, flagship):
        _, series = flagship
        gg, ee = norms(series)
        gg_expanded, ee_expanded, expanded = expanded_overlaps(series)
        np.testing.assert_allclose(gg_expanded, gg, rtol=1e-9)
        np.testing.assert_allclose(ee_expanded, ee, rtol=1e-9)
        concise = eg_overlap(series)
        assert np.all(
            np.abs(expanded - concise) <= 1e-9 * np.maximum(1.0, np.abs(concise))
        )

    def test_exponential_cancellation(self, flagship):
        _, series = flagship
        routed = p_via_overlaps(series)
        direct = mixing_probability(series.sin_half, series.cos_half)
        assert np.max(np.abs(routed - direct)) < 1e-9

    def test_conjugation_symmetry_exact(self, flagship):
        _, series = flagship
        assert np.array_equal(ge_overlap(series), np.conj(eg_overlap(series)))


def test_long_damped_run_keeps_overlap_route_finite():
    # Over [0, 20000] the excited norm underflows to 0; the overlap-route
    # quotient is formed in log space and must still match the pointwise P.
    scenario = load_shipped("constant-damped")
    scenario = dataclasses.replace(
        scenario, grid=dataclasses.replace(scenario.grid, t_end=20000.0)
    )
    series = snapshot_series(scenario.system, scenario.field, scenario.grid())
    _, ee = norms(series)
    assert ee[-1] == 0.0
    routed = p_via_overlaps(series)[-1]
    assert math.isfinite(routed) and routed > 0.0
    direct = mixing_probability(series.sin_half[-1], series.cos_half[-1])
    assert abs(routed - direct) < 1e-9


class TestAmplitudeRatios:
    def test_weak_field_ratio_scales_linearly(self):
        # |c_e/c_g| -> Omega / (2 delta) as Omega -> 0.
        series = static_series(omega0=1e-4, carrier=1.0, omega_e=5.0)
        ratio = amplitude_ratios(series, "ground")[60]
        assert abs(ratio) == pytest.approx(1e-4 / 8.0, rel=1e-6)

    def test_static_adiabatic_ratio(self):
        # Omega=3, delta=4: |c_e/c_g| = sqrt(0.1/0.9) = 1/3.
        series = static_series(omega0=3.0, carrier=1.0, omega_e=5.0)
        ratio = amplitude_ratios(series, "ground")[70]
        assert abs(ratio) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_ratio_formula(self, flagship):
        _, series = flagship
        k = 900
        s = complex(series.sin_half[k])
        c = complex(series.cos_half[k])
        elapsed = series.grid[k] - series.grid[0]
        phase = cmath.exp(
            -1j * series.field.carrier_omega * elapsed - 1j * float(series.phi[k])
        )
        ground = amplitude_ratios(series, "ground")[k]
        assert ground == pytest.approx(s / c * phase, rel=1e-12)
        excited = amplitude_ratios(series, "excited")[k]
        assert excited == pytest.approx(-s / c / phase, rel=1e-12)

    # The ratio is NaN where |COS| < RATIO_FLOOR |SIN|, RATIO_FLOOR = 1e-14.
    @pytest.mark.parametrize("cos_over_sin, defined", [(0.0, False), (1e-15, False),
                                                       (1e-12, True)])
    def test_undefined_ratio(self, flagship, cos_over_sin, defined):
        scenario, _ = flagship
        series = snapshot_series(scenario.system, scenario.field, scenario.grid()[:5])
        patched = np.array(series.cos_half)
        patched[3] = cos_over_sin * abs(series.sin_half[3])
        series.cos_half = patched
        for init in ("ground", "excited"):
            ratios = amplitude_ratios(series, init)
            assert np.isfinite(ratios[3]) if defined else np.isnan(ratios[3])
            assert np.all(np.isfinite(ratios[[0, 1, 2, 4]]))

    @pytest.mark.parametrize("init", ["ground", "excited"])
    def test_long_damped_run_stays_finite(self, init):
        # Over [0, 6000] the component weights exp(-i int omega'_G) and
        # exp(-i int omega'_E) over- and underflow; they cancel in the ratio,
        # whose modulus is |SIN/COS| at every point.
        scenario = load_shipped("constant-damped")
        scenario = dataclasses.replace(
            scenario, grid=dataclasses.replace(scenario.grid, t_end=6000.0, step=0.5)
        )
        series = snapshot_series(scenario.system, scenario.field, scenario.grid())
        assert len(series) == 12001
        ratios = amplitude_ratios(series, init)
        assert np.all(np.isfinite(ratios))
        expected = np.abs(series.sin_half / series.cos_half)
        np.testing.assert_allclose(np.abs(ratios), expected, rtol=1e-12, atol=0)

    def test_constant_field_ratio_is_the_closed_form_damping_eigenvector(self):
        # On a constant, unchirped field the closed form's ratio is that of
        # the ground-like eigenvector (the smaller |b_e/b_g|) of the
        # rotating-frame generator with damping (0, gamma_g + gamma_e): its
        # relative damping is gamma = (gamma_g + gamma_e)/2 in delta_tilde.
        rng = np.random.default_rng(20261020)
        for _ in range(50):
            gamma_g, gamma_e = rng.uniform(0.0, 0.5, 2)
            delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 5.0)
            omega0, mu = rng.uniform(0.1, 4.0), rng.uniform(0.5, 2.0)
            params = SystemParams(0.0, 10.0, mu=mu, gamma_g=gamma_g, gamma_e=gamma_e)
            field = FieldModel(carrier_omega=10.0 - delta, envelope=ConstantEnvelope(omega0))
            series = snapshot_series(params, field, np.linspace(0.0, 1.0, 5))
            model = dataclasses.replace(params, gamma_g=0.0, gamma_e=gamma_g + gamma_e)
            expected = ground_like_ratio(model, field)
            np.testing.assert_allclose(np.abs(amplitude_ratios(series, "ground")), expected,
                                       rtol=1e-12, atol=0)

    def test_constant_damped_gap_to_the_integrator_damping(self):
        # The integrator damps c_g at gamma_g/2 and c_e at gamma_e/2; its
        # generator's ground-like ratio differs from the closed form's by
        # 2.7e-3 relative on constant-damped (README, "What it computes").
        scenario = load_shipped("constant-damped")
        series = snapshot_series(scenario.system, scenario.field, scenario.grid())
        closed_form = abs(amplitude_ratios(series, "ground")[len(series) // 2])
        integrator = ground_like_ratio(scenario.system, scenario.field)
        assert abs(closed_form - integrator) / integrator == pytest.approx(2.7e-3, rel=0.1)


def test_series_freed_by_reference_counting(flagship):
    # Nothing may point back from the series to its overlaps: a cycle would
    # leave every series to the cyclic collector and memory would pile up.
    scenario, _ = flagship
    series = snapshot_series(scenario.system, scenario.field, scenario.grid())
    norms(series)
    ref = weakref.ref(series)
    gc.disable()
    try:
        del series
        assert ref() is None
    finally:
        gc.enable()
