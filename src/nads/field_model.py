"""Driving field in carrier-envelope form and two-level system parameters.

The field is E(t) = (1/2) E0(t) [exp{i(w t + phi(t))} + c.c.], i.e. a slow
envelope and quadratic (linearly chirped) phase riding on a fast carrier.
Everything downstream works with the Rabi envelope Omega(t) = mu*E0(t)/hbar
directly (natural units, hbar = 1), so envelopes are parameterized by peak
Rabi frequency rather than by field amplitude.

Only envelopes that are strictly positive everywhere are provided (constant,
Gaussian, sech): the logarithmic derivative Omega^-1 dOmega/dt enters the
nonadiabatic detuning and diverges where the envelope vanishes.

These dataclasses are the schema of a scenario's ``system`` and ``field``
sections: their fields, defaults and checks are its keys, defaults and
value checks. The module also holds what every layer checks a run with:
the types of the run's choices, :data:`Frame` and :data:`InitialState`, the
run defaults of the RK4 cross-check, and the value checks, which raise a
ValidationError naming the value. The run defaults are declared here once:
a ground start (:data:`DEFAULT_INIT`) to ``rtol`` 1e-10 and ``atol`` 1e-12
(:data:`DEFAULT_RTOL`, :data:`DEFAULT_ATOL`), which ``Integrator``,
``Scenario.initial_state``, ``evolve`` and ``final_states`` read. The
integrator has one frame, the rotating one (:data:`DEFAULT_FRAME`); the
scenario schema keeps ``integrator.frame`` as a choice of that one value,
which every table header echoes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Union, get_args, get_origin

import numpy as np

from .errors import ValidationError

__all__ = [
    "SystemParams",
    "ConstantEnvelope",
    "GaussianEnvelope",
    "SechEnvelope",
    "Chirp",
    "FieldModel",
]

#: Smallest admissible Rabi envelope value. Below this the caller is
#: evaluating too far into a pulse wing for Omega^-1 dOmega/dt to mean
#: anything; we raise instead of silently clamping.
OMEGA_FLOOR = 1e-30

#: A run's choices: the frame it is integrated in, of which there is one,
#: and the state it starts in.
Frame = Literal["rotating"]
InitialState = Literal["ground", "excited"]

#: A run's defaults: its choices and the tolerances of the RK4 controller.
DEFAULT_INIT: InitialState = "ground"
DEFAULT_FRAME: Frame = "rotating"
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


def _suggest(key: str, allowed) -> str:
    import difflib  # only error messages need it, so no start-up loads it
    matches = difflib.get_close_matches(key, list(allowed), n=1, cutoff=0.5)
    return f"; did you mean '{matches[0]}'?" if matches else ""


def _require_choice(label: str, value, allowed) -> None:
    """Reject a value outside ``allowed``, a ``Literal`` type or a collection
    of strings, naming the nearest choice."""
    if get_origin(allowed) is Literal:
        allowed = get_args(allowed)
    if value not in allowed:
        raise ValidationError(
            f"{label} must be one of {list(allowed)}, got '{value}'"
            f"{_suggest(str(value), allowed)}"
        )


def _require_finite(owner: str, **values) -> None:
    """Reject NaN and infinite parameters by name."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{owner}.{name} must be finite, got {value}")


def _require_positive(owner: str, **values) -> None:
    """Reject zero and negative parameters by name."""
    for name, value in values.items():
        if not value > 0:
            raise ValidationError(f"{owner}.{name} must be positive, got {value}")


@dataclass(frozen=True)
class SystemParams:
    """Bare frequencies, dipole scale and damping rates of the two-level system.

    Parameters
    ----------
    omega_g, omega_e : float
        Bare angular frequencies of ground and excited state (rad/time unit),
        with ``omega_e > omega_g``.
    mu : float
        Positive dimensionless dipole scale; multiplies the Rabi envelope.
        Default 1.
    gamma_g, gamma_e : float
        Non-negative damping rates (1/time unit) entering the Hamiltonian as
        the anti-Hermitian term -i(gamma_j/2)|j><j|.
    """

    omega_g: float
    omega_e: float
    mu: float = 1.0
    gamma_g: float = 0.0
    gamma_e: float = 0.0

    def __post_init__(self):
        _require_finite(
            "SystemParams", omega_g=self.omega_g, omega_e=self.omega_e,
            mu=self.mu, gamma_g=self.gamma_g, gamma_e=self.gamma_e,
        )
        _require_positive("SystemParams", mu=self.mu)
        if not (self.omega_e > self.omega_g):
            raise ValidationError(
                f"omega_e ({self.omega_e}) must exceed omega_g ({self.omega_g})"
            )
        if self.gamma_g < 0 or self.gamma_e < 0:
            raise ValidationError(
                f"damping rates must be >= 0, got gamma_g={self.gamma_g}, "
                f"gamma_e={self.gamma_e}"
            )

    @property
    def gamma_sum_half(self) -> float:
        """(gamma_g + gamma_e)/2, the damping combination used throughout."""
        return 0.5 * (self.gamma_g + self.gamma_e)


@dataclass(frozen=True)
class ConstantEnvelope:
    """CW field: Omega(t) = omega0 > 0."""

    omega0: float
    kind = "constant"

    def __post_init__(self):
        _require_finite("ConstantEnvelope", omega0=self.omega0)
        _require_positive("ConstantEnvelope", omega0=self.omega0)

    @property
    def t_center(self) -> float:
        return 0.0

    def omega(self, t):
        return self.omega0 * np.ones_like(np.asarray(t, dtype=float))

    def log_deriv(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def dlog_deriv(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class _PulseEnvelope:
    """Peak Rabi frequency omega0 > 0, center t_center and width tau > 0 of
    a pulse; subclasses give its shape."""

    omega0: float
    t_center: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        owner = type(self).__name__
        _require_finite(owner, omega0=self.omega0, t_center=self.t_center, tau=self.tau)
        _require_positive(owner, omega0=self.omega0, tau=self.tau)


@dataclass(frozen=True)
class GaussianEnvelope(_PulseEnvelope):
    """Gaussian pulse: Omega(t) = omega0 * exp(-((t - t_center)/tau)^2)."""

    kind = "gaussian"

    def omega(self, t):
        x = (np.asarray(t, dtype=float) - self.t_center) / self.tau
        return self.omega0 * np.exp(-x * x)

    def log_deriv(self, t):
        return -2.0 * (np.asarray(t, dtype=float) - self.t_center) / self.tau**2

    def dlog_deriv(self, t):
        return np.full_like(np.asarray(t, dtype=float), -2.0 / self.tau**2)


@dataclass(frozen=True)
class SechEnvelope(_PulseEnvelope):
    """Hyperbolic-secant pulse: Omega(t) = omega0 * sech((t - t_center)/tau)."""

    kind = "sech"

    # cosh overflows to inf in the far wings, where sech is simply 0.
    def omega(self, t):
        x = (np.asarray(t, dtype=float) - self.t_center) / self.tau
        with np.errstate(over="ignore"):
            return self.omega0 / np.cosh(x)

    def log_deriv(self, t):
        x = (np.asarray(t, dtype=float) - self.t_center) / self.tau
        return -np.tanh(x) / self.tau

    def dlog_deriv(self, t):
        x = (np.asarray(t, dtype=float) - self.t_center) / self.tau
        with np.errstate(over="ignore"):
            return -1.0 / (np.cosh(x) ** 2 * self.tau**2)


Envelope = Union[ConstantEnvelope, GaussianEnvelope, SechEnvelope]


@dataclass(frozen=True)
class Chirp:
    """Quadratic phase phi(t) = phi0 + (beta/2)(t - t_center)^2 (linear chirp).

    ``t_center`` defaults to the envelope center when the chirp is attached
    to a :class:`FieldModel`.
    """

    phi0: float = 0.0
    beta: float = 0.0
    t_center: float | None = None

    def __post_init__(self):
        _require_finite("Chirp", phi0=self.phi0, beta=self.beta)
        if self.t_center is not None:
            _require_finite("Chirp", t_center=self.t_center)


@dataclass(frozen=True)
class FieldModel:
    """Positive carrier frequency, Rabi envelope and chirped phase of the
    driving field."""

    carrier_omega: float
    envelope: Envelope
    phase: Chirp = field(default_factory=Chirp)

    def __post_init__(self):
        _require_finite("FieldModel", carrier_omega=self.carrier_omega)
        _require_positive("FieldModel", carrier_omega=self.carrier_omega)

    @property
    def phase_center(self) -> float:
        if self.phase.t_center is not None:
            return self.phase.t_center
        return self.envelope.t_center

    def phi(self, t):
        return self.phase.phi0 + 0.5 * self.phase.beta * (np.asarray(t, dtype=float) - self.phase_center) ** 2

    def dphi(self, t):
        return self.phase.beta * (np.asarray(t, dtype=float) - self.phase_center)

    def d2phi(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.phase.beta)
