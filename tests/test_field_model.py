"""Envelope, phase and lab-frame coupling contracts.

Frozen constants marked 'oracle' regenerate with ``python3 tests/oracles.py``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from nads.errors import EnvelopeUnderflow, ValidationError
from nads.field_model import (
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from nads.nads_core import snapshot_series

from reference import rhs


def lab_coupling(field, params, t):
    """The lab-frame coupling -Omega(t) cos(w t + phi(t)), read off the
    c_e -> dc_g/dt term of :func:`reference.rhs` (omega_g = gamma_g = 0)."""
    d_g, _ = rhs(t, (0j, 1 + 0j), params, field, frame="lab")
    return d_g.imag


class TestSystemParams:
    def test_defaults_and_gamma_sum(self):
        p = SystemParams(omega_g=0.0, omega_e=5.0)
        assert p.mu == 1.0 and p.gamma_g == 0.0 and p.gamma_e == 0.0
        assert SystemParams(0.0, 5.0, gamma_g=0.1, gamma_e=0.3).gamma_sum_half == pytest.approx(0.2)

    def test_level_ordering_enforced(self):
        with pytest.raises(ValidationError):
            SystemParams(omega_g=5.0, omega_e=5.0)
        with pytest.raises(ValidationError):
            SystemParams(omega_g=5.0, omega_e=1.0)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValidationError):
            SystemParams(0.0, 5.0, gamma_g=-0.1)
        with pytest.raises(ValidationError):
            SystemParams(0.0, 5.0, gamma_e=-1e-30)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite(bad):
    builders = [
        lambda: SystemParams(bad, 5.0),
        lambda: SystemParams(0.0, bad),
        lambda: SystemParams(0.0, 5.0, mu=bad),
        lambda: SystemParams(0.0, 5.0, gamma_g=bad),
        lambda: SystemParams(0.0, 5.0, gamma_e=bad),
        lambda: ConstantEnvelope(bad),
        lambda: GaussianEnvelope(bad),
        lambda: GaussianEnvelope(1.0, t_center=bad),
        lambda: GaussianEnvelope(1.0, tau=bad),
        lambda: SechEnvelope(bad),
        lambda: SechEnvelope(1.0, t_center=bad),
        lambda: SechEnvelope(1.0, tau=bad),
        lambda: Chirp(phi0=bad),
        lambda: Chirp(beta=bad),
        lambda: Chirp(t_center=bad),
        lambda: FieldModel(carrier_omega=bad, envelope=ConstantEnvelope(1.0)),
    ]
    for build in builders:
        with pytest.raises(ValidationError, match="finite"):
            build()


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
def test_constructors_require_positive_mu_and_carrier(bad):
    with pytest.raises(
        ValidationError, match=f"SystemParams.mu must be positive, got {bad}"
    ):
        SystemParams(omega_g=0.0, omega_e=1.0, mu=bad)
    with pytest.raises(
        ValidationError, match=f"FieldModel.carrier_omega must be positive, got {bad}"
    ):
        FieldModel(carrier_omega=bad, envelope=ConstantEnvelope(1.0))


@pytest.mark.parametrize("cls", [ConstantEnvelope, GaussianEnvelope, SechEnvelope])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_envelopes_require_positive_parameters(cls, bad):
    with pytest.raises(
        ValidationError, match=f"{cls.__name__}.omega0 must be positive, got {bad}"
    ):
        cls(omega0=bad)
    if cls is not ConstantEnvelope:
        with pytest.raises(
            ValidationError, match=f"{cls.__name__}.tau must be positive, got {bad}"
        ):
            cls(omega0=1.0, tau=bad)


class TestEnvelopes:
    def test_constant_derivatives_vanish(self):
        env = ConstantEnvelope(omega0=0.5)
        for t in (-3.0, 0.0, 7.5):
            assert float(env.omega(t)) == 0.5
            assert float(env.log_deriv(t)) == 0.0
            assert float(env.dlog_deriv(t)) == 0.0

    def test_gaussian_closed_form(self):
        env = GaussianEnvelope(omega0=1.0, t_center=0.0, tau=10.0)
        assert float(env.omega(5.0)) == pytest.approx(math.exp(-0.25), rel=1e-15)
        assert float(env.log_deriv(5.0)) == pytest.approx(-0.1, rel=1e-15)
        assert float(env.dlog_deriv(5.0)) == pytest.approx(-0.02, rel=1e-15)
        assert float(env.omega(0.0)) == 1.0

    def test_sech_closed_form(self):
        env = SechEnvelope(omega0=1.0, t_center=0.0, tau=2.0)
        assert float(env.omega(0.0)) == 1.0
        assert float(env.log_deriv(0.0)) == 0.0
        assert float(env.dlog_deriv(0.0)) == pytest.approx(-0.25, rel=1e-15)

    @pytest.mark.parametrize("t", [72.0, np.array([-80.0, 72.0])])
    def test_sech_far_wing_is_zero_without_warning(self, t):
        # cosh overflows beyond 710 tau from the centre; sech is 0 there.
        env = SechEnvelope(omega0=1.0, tau=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            omega, dlog = env.omega(t), env.dlog_deriv(t)
        assert np.all(omega == 0.0) and not np.any(np.signbit(omega))
        assert np.all(dlog == 0.0) and np.all(np.signbit(dlog))

    def test_sech_log_deriv_matches_finite_difference(self):
        env = SechEnvelope(omega0=1.3, t_center=-1.0, tau=4.0)
        h = 1e-4
        for t in (-2.0, 0.7, 3.5):
            fd = (math.log(float(env.omega(t + h))) - math.log(float(env.omega(t - h)))) / (2 * h)
            assert float(env.log_deriv(t)) == pytest.approx(fd, rel=1e-6)
            fd2 = (float(env.log_deriv(t + h)) - float(env.log_deriv(t - h))) / (2 * h)
            assert float(env.dlog_deriv(t)) == pytest.approx(fd2, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ConstantEnvelope(omega0=0.0)
        with pytest.raises(ValidationError):
            GaussianEnvelope(omega0=-1.0)
        with pytest.raises(ValidationError):
            SechEnvelope(omega0=1.0, tau=0.0)

    def test_array_polymorphism(self):
        env = GaussianEnvelope(omega0=2.0, t_center=1.0, tau=5.0)
        t = np.array([-1.0, 1.0, 4.0])
        for fn in (env.omega, env.log_deriv, env.dlog_deriv):
            vec = fn(t)
            assert isinstance(vec, np.ndarray) and vec.shape == t.shape
            assert vec == pytest.approx([float(fn(x)) for x in t], rel=1e-15)


class TestPhase:
    def test_no_chirp(self):
        field = FieldModel(carrier_omega=1.0, envelope=ConstantEnvelope(1.0))
        assert (field.phi(7.0), field.dphi(7.0), field.d2phi(7.0)) == (0.0, 0.0, 0.0)

    def test_quadratic_phase(self):
        field = FieldModel(
            carrier_omega=1.0,
            envelope=ConstantEnvelope(1.0),
            phase=Chirp(phi0=1.0, beta=0.2, t_center=0.0),
        )
        phi, dphi, d2phi = field.phi(3.0), field.dphi(3.0), field.d2phi(3.0)
        assert phi == pytest.approx(1.9, rel=1e-15)
        assert dphi == pytest.approx(0.6, rel=1e-15)
        assert d2phi == pytest.approx(0.2, rel=1e-15)

    def test_symmetry_point(self):
        field = FieldModel(
            carrier_omega=1.0,
            envelope=ConstantEnvelope(1.0),
            phase=Chirp(phi0=0.0, beta=-0.1, t_center=2.0),
        )
        assert (field.phi(2.0), field.dphi(2.0), field.d2phi(2.0)) == (0.0, 0.0, -0.1)

    def test_center_defaults_to_envelope_center(self):
        field = FieldModel(
            carrier_omega=1.0,
            envelope=GaussianEnvelope(omega0=1.0, t_center=3.0, tau=1.0),
            phase=Chirp(beta=0.4),
        )
        assert field.phase_center == 3.0
        assert float(field.dphi(3.0)) == 0.0
        assert float(field.dphi(4.0)) == pytest.approx(0.4)


class TestLabCoupling:
    def test_peak_and_quarter_period(self):
        params = SystemParams(0.0, 5.0)
        field = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(0.4))
        assert lab_coupling(field, params, 0.0) == -0.4
        assert abs(lab_coupling(field, params, math.pi / 10)) < 1e-16

    def test_chirped_gaussian_value(self):
        params = SystemParams(0.0, 5.0)
        field = FieldModel(
            carrier_omega=2.0,
            envelope=GaussianEnvelope(omega0=1.0, t_center=0.0, tau=10.0),
            phase=Chirp(beta=0.2, t_center=0.0),
        )
        # oracle: -exp(-25/100) cos(12.5) = -0.7770860811715788724581
        assert lab_coupling(field, params, 5.0) == pytest.approx(
            -0.7770860811715789, rel=1e-14
        )

    def test_dipole_scaling(self):
        field = FieldModel(carrier_omega=5.0, envelope=ConstantEnvelope(0.4))
        weak = lab_coupling(field, SystemParams(0.0, 5.0, mu=1.0), 0.3)
        strong = lab_coupling(field, SystemParams(0.0, 5.0, mu=2.0), 0.3)
        assert strong == pytest.approx(2.0 * weak, rel=1e-15)


class TestSeriesEnvelope:
    def test_sample_fields(self):
        params = SystemParams(0.0, 5.0, mu=2.0)
        field = FieldModel(
            carrier_omega=2.0,
            envelope=GaussianEnvelope(omega0=1.0, t_center=0.0, tau=10.0),
        )
        series = snapshot_series(params, field, np.array([5.0, 6.0]))
        assert series.grid[0] == 5.0
        assert series.omega[0] == pytest.approx(2.0 * math.exp(-0.25), rel=1e-15)
        assert series.log_deriv[0] == pytest.approx(-0.1, rel=1e-15)
        # dlog_deriv enters as the imaginary part of d_delta_tilde
        assert series.d_delta_tilde[0].imag == pytest.approx(-0.02, rel=1e-15)

    def test_underflow_deep_in_wing(self):
        params = SystemParams(0.0, 5.0)
        field = FieldModel(
            carrier_omega=2.0,
            envelope=GaussianEnvelope(omega0=1.0, t_center=0.0, tau=1.0),
        )
        with pytest.raises(EnvelopeUnderflow) as info:
            snapshot_series(params, field, np.array([0.0, 12.0]))
        assert info.value.grid_index == 1
