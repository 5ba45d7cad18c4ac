"""Overlap matrix elements, transition probability and amplitude ratios.

Frozen constants marked 'oracle' regenerate with ``python3 tests/oracles.py``.
The oracle integrates the same integrands with adaptive high-precision
quadrature, so agreement budgets the trapezoid error of the implementation
(about 1e-7 relative at the flagship step; 5e-6 asserted).
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nads.errors import RatioUndefined
from nads.field_model import ConstantEnvelope, FieldModel, SystemParams
from nads.nads_core import NadsSnapshot, snapshot_series
from nads.scenario import load_shipped
from nads.overlap_transitions import (
    overlap_ee,
    overlap_ee_expanded,
    overlap_eg,
    overlap_eg_expanded,
    overlap_ge,
    overlap_gg,
    overlap_gg_expanded,
    overlaps,
    reconstruct_bare_amplitudes,
    transition_probability,
    transition_probability_via_overlaps,
)


def fake_snapshot(s: complex, c: complex) -> NadsSnapshot:
    """Snapshot carrying only the mixing functions (enough for P)."""
    return NadsSnapshot(
        t=0.0, omega=1.0, delta=1.0, delta_tilde=1.0, d_delta_tilde=0.0,
        omega_tilde=1.0, d_omega_tilde=0.0, lambda1=1.0, lambda2=0.0,
        lambda_t1=1.0, lambda_t2=0.0, cos_half=c, sin_half=s,
        omega_G=0.0, omega_E=0.0,
    )


def static_series(omega0=3.0, carrier=1.0, omega_e=5.0, gamma_g=0.0, gamma_e=0.0,
                  span=10.0, n=101):
    params = SystemParams(0.0, omega_e, gamma_g=gamma_g, gamma_e=gamma_e)
    field = FieldModel(carrier_omega=carrier, envelope=ConstantEnvelope(omega0))
    return snapshot_series(params, field, np.linspace(0.0, span, n))


complex_pairs = st.tuples(
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
)


class TestTransitionProbability:
    def test_real_mixing_is_adiabatic(self):
        assert transition_probability(fake_snapshot(0.31623, 0.94868)) == 0.0

    def test_direct_substitution(self):
        p = transition_probability(fake_snapshot(0.3162j, 0.94868))
        bracket = abs(2 * 0.3162 * 0.94868) ** 2
        assert p == pytest.approx(bracket / (0.3162**2 + 0.94868**2) ** 2, rel=1e-12)

    def test_maximal_mixing(self):
        p = transition_probability(fake_snapshot(0.5 + 0.5j, 0.5 - 0.5j))
        assert p == pytest.approx(1.0, rel=1e-15)

    @given(pair=complex_pairs)
    @settings(max_examples=500, deadline=None)
    def test_bound_and_microreversibility(self, pair):
        s, c = pair
        forward = transition_probability(fake_snapshot(s, c))
        reverse = transition_probability(fake_snapshot(c, s))
        assert 0.0 <= forward <= 1.0 + 1e-12
        assert forward == reverse  # expression symmetric in s <-> c, exactly


class TestStaticOverlaps:
    def test_real_static_norms_stay_one(self):
        series = static_series()
        for k in (0, 50, 100):
            assert overlap_gg(series, k) == pytest.approx(1.0, abs=1e-12)
            assert overlap_ee(series, k) == pytest.approx(1.0, abs=1e-12)
            assert abs(overlap_eg(series, k)) < 1e-15
            assert transition_probability_via_overlaps(series, k) < 1e-30

    def test_weak_field_ground_state_does_not_decay(self):
        # gamma_g only, Omega -> 0: Lambda_2 -> 0 so gg stays at 1. Omega must
        # stay above sqrt(eps)*delta or the mixing drowns in sqrt roundoff.
        series = static_series(omega0=1e-4, carrier=1.0, omega_e=5.0, gamma_g=0.1)
        assert overlap_gg(series, 100) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_damping_real_rabi_keeps_ee_over_gg_unity(self):
        series = static_series(gamma_g=0.2, gamma_e=0.2)
        # gamma_g = gamma_e makes delta_tilde complex, but the ee/gg ratio
        # depends only on the +-Im omega_tilde split of the exponents.
        ratio = overlap_ee(series, 80) / overlap_gg(series, 80)
        expected = math.exp(
            2.0 * np.trapezoid(series.omega_tilde.imag[:81], series.grid[:81])
        )
        assert ratio == pytest.approx(expected, rel=1e-12)


class TestFlagshipOverlaps:
    def test_values_against_quadrature_oracle(self, flagship):
        _, series = flagship
        k = 1200  # t = 0
        assert overlap_gg(series, k) == pytest.approx(0.2942519908684480, rel=5e-6)
        assert overlap_ee(series, k) == pytest.approx(1374.0735006019437, rel=5e-6)
        eg = overlap_eg(series, k)
        assert eg == pytest.approx(-0.4583443515165936 + 0.8276412957297821j, rel=5e-6)
        assert transition_probability(series.snapshot(k)) == pytest.approx(
            0.0022137443285869459, rel=1e-6
        )

    def test_norms_real_positive(self, flagship):
        _, series = flagship
        for k in range(0, len(series), 97):
            gg = overlap_gg(series, k)
            ee = overlap_ee(series, k)
            assert isinstance(gg, float) and gg > 0.0
            assert isinstance(ee, float) and ee > 0.0

    def test_expanded_forms_match_concise(self, flagship):
        _, series = flagship
        for k in range(0, len(series), 101):
            assert overlap_gg_expanded(series, k) == pytest.approx(
                overlap_gg(series, k), rel=1e-9
            )
            assert overlap_ee_expanded(series, k) == pytest.approx(
                overlap_ee(series, k), rel=1e-9
            )
            concise = overlap_eg(series, k)
            expanded = overlap_eg_expanded(series, k)
            assert abs(expanded - concise) <= 1e-9 * max(1.0, abs(concise))

    def test_exponential_cancellation(self, flagship):
        _, series = flagship
        worst = max(
            abs(
                transition_probability_via_overlaps(series, k)
                - transition_probability(series.snapshot(k))
            )
            for k in range(len(series))
        )
        assert worst < 1e-9

    def test_conjugation_symmetry_exact(self, flagship):
        _, series = flagship
        for k in range(0, len(series), 53):
            assert overlap_ge(series, k) == overlap_eg(series, k).conjugate()

    def test_overlap_set(self, flagship):
        _, series = flagship
        bundle = overlaps(series, 1200)
        assert bundle.t == 0.0
        assert bundle.gg == overlap_gg(series, 1200)
        assert bundle.ee == overlap_ee(series, 1200)
        assert bundle.eg == overlap_eg(series, 1200)
        assert 0.0 <= bundle.p_ge <= 1.0

    def test_index_bounds(self, flagship):
        _, series = flagship
        with pytest.raises(IndexError):
            overlap_gg(series, len(series))
        with pytest.raises(IndexError):
            overlap_gg(series, -1)


def test_long_damped_run_keeps_overlap_route_finite():
    # Over [0, 20000] the excited norm underflows to 0; the overlap-route
    # quotient is formed in log space and must still match the pointwise P.
    scenario = dataclasses.replace(load_shipped("constant-damped"), t_end=20000.0)
    series = snapshot_series(scenario.system, scenario.field, scenario.grid())
    k = len(series) - 1
    assert overlap_ee(series, k) == 0.0
    routed = transition_probability_via_overlaps(series, k)
    assert math.isfinite(routed) and routed > 0.0
    assert abs(routed - transition_probability(series.snapshot(k))) < 1e-9


class TestReconstructedAmplitudes:
    def test_weak_field_ratio_scales_linearly(self):
        # |c_e/c_g| -> Omega / (2 delta) as Omega -> 0.
        series = static_series(omega0=1e-4, carrier=1.0, omega_e=5.0)
        rec = reconstruct_bare_amplitudes(series, 60, "ground")
        assert abs(rec.ratio) == pytest.approx(1e-4 / 8.0, rel=1e-6)

    def test_static_adiabatic_ratio(self):
        # Omega=3, delta=4: |c_e/c_g| = sqrt(0.1/0.9) = 1/3.
        series = static_series(omega0=3.0, carrier=1.0, omega_e=5.0)
        rec = reconstruct_bare_amplitudes(series, 70, "ground")
        assert abs(rec.ratio) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rec.init == "ground"
        assert rec.t == series.grid[70]

    def test_ratio_formula(self, flagship):
        _, series = flagship
        k = 900
        rec = reconstruct_bare_amplitudes(series, k, "ground")
        s = complex(series.sin_half[k])
        c = complex(series.cos_half[k])
        elapsed = series.grid[k] - series.grid[0]
        phase = cmath.exp(
            -1j * series.field.carrier_omega * elapsed - 1j * float(series.phi[k])
        )
        assert rec.ratio == pytest.approx(s / c * phase, rel=1e-12)
        flipped = reconstruct_bare_amplitudes(series, k, "excited")
        assert flipped.ratio == pytest.approx(-s / c / phase, rel=1e-12)

    def test_component_structure(self, flagship):
        _, series = flagship
        rec = reconstruct_bare_amplitudes(series, 400, "ground")
        assert set(rec.components) == {
            "ground_real", "ground_virtual", "excited_real", "excited_virtual",
        }
        bare = {name: state for name, (state, _) in rec.components.items()}
        assert bare == {
            "ground_real": "g", "ground_virtual": "e",
            "excited_real": "e", "excited_virtual": "g",
        }
        # Unit weights at the first grid point: integrals vanish there.
        first = reconstruct_bare_amplitudes(series, 0, "ground")
        for _, coeff in first.components.values():
            assert coeff == pytest.approx(
                cmath.exp(-1j * float(series.phi[0])), rel=1e-12
            ) or coeff == pytest.approx(1.0, rel=1e-12)

    def test_undefined_ratio(self, flagship):
        scenario, _ = flagship
        series = snapshot_series(scenario.system, scenario.field, scenario.grid()[:5])
        patched = np.array(series.cos_half)
        patched[3] = 0.0
        series.cos_half = patched
        with pytest.raises(RatioUndefined, match="grid index"):
            reconstruct_bare_amplitudes(series, 3, "ground")
        with pytest.raises(RatioUndefined):
            reconstruct_bare_amplitudes(series, 3, "excited")

    def test_invalid_init(self, flagship):
        _, series = flagship
        with pytest.raises(ValueError):
            reconstruct_bare_amplitudes(series, 0, "superposition")
