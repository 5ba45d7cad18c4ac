"""Instantaneous nonadiabatic dressed-state quantities along a time grid.

All quantities are closed-form functions of the envelope, phase and damping
at one instant, except the time derivative of the nonadiabatic Rabi
frequency, which is taken by second-order finite differences along the grid
after the branch-continuous square root has been evaluated (the analytic
chain rule would need third derivatives of envelope and phase).

Complex square roots are tracked for continuity: the principal branch is
used at the first grid point (times the detuning sign where the definition
says so) and thereafter the root closer to the previous sample is kept.
Every selection is recorded so a jump can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from .errors import (
    BranchAmbiguity,
    DegenerateRabi,
    EnvelopeUnderflow,
    NonFiniteValue,
)
from .field_model import (
    FieldModel,
    SystemParams,
    OMEGA_FLOOR,
)

__all__ = [
    "SnapshotSeries",
    "detuning",
    "require_finite",
    "snapshot_series",
]

#: |Omega-tilde| below which the Lambda-tilde division is refused.
RABI_DEGENERACY_FLOOR = 1e-12

#: Relative tolerance inside which the two candidate roots count as
#: equidistant from the previous sample (branch ambiguity).
BRANCH_AMBIGUITY_RTOL = 1e-14


@dataclass(eq=False)
class SnapshotSeries:
    """Branch-continuous dressed-state quantities on a uniform time grid.

    Arrays are read-only once constructed; treat instances as immutable.
    ``branch_log`` maps each tracked square root to an int8 array of +1
    (principal branch kept) / -1 (negated principal chosen for continuity).
    Overlaps, transition probabilities and amplitude ratios are formed from
    a series by :mod:`nads.overlap_transitions`.
    """

    params: SystemParams
    field: FieldModel
    grid: np.ndarray
    sign_delta: int
    delta: float
    omega: np.ndarray
    log_deriv: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    delta_tilde: np.ndarray
    d_delta_tilde: np.ndarray
    omega_tilde: np.ndarray
    d_omega_tilde: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda_t1: np.ndarray
    lambda_t2: np.ndarray
    cos_half: np.ndarray
    sin_half: np.ndarray
    omega_G: np.ndarray
    omega_E: np.ndarray
    branch_log: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


def detuning(params: SystemParams, field: FieldModel) -> float:
    """Static detuning: omega_e - omega_g - carrier."""
    return params.omega_e - params.omega_g - field.carrier_omega


def require_finite(quantity: str, values: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` naming ``quantity`` at the first grid
    index where ``values`` is inf or NaN."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteValue(f"{quantity} is not finite: {values[k]}", grid_index=k)


def _require_one_of(name: str, value, choices) -> None:
    """Raise ValueError unless ``value`` is a string of the ``Literal``
    type ``choices``."""
    allowed = get_args(choices)
    if value not in allowed:
        raise ValueError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")


def _central_diff(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative on a uniform grid, one-sided at the ends.

    A two-point grid degrades to the single first-order difference, the
    best available estimate there.
    """
    out = np.empty_like(values)
    if len(values) == 2:
        out[:] = (values[1] - values[0]) / h
        return out
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def _track_branches(
    principal: np.ndarray,
    first_sign: tuple[int, ...],
    contexts: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Branch-continuous square roots from principal roots, one series per row.

    Row j starts at ``first_sign[j]`` times its principal root; afterwards
    each sample keeps whichever of +-principal lies nearer the previous kept
    root. Since |p_k - s p_{k-1}| and |p_k + s p_{k-1}| only swap with the
    sign s, the per-step decision is the sign-free comparison of
    |p_k -+ p_{k-1}|, and the signs are its running product (a prefix scan).

    Returns the tracked roots and their int8 signs (+1 principal kept, -1
    negated), both shaped like ``principal``.

    Raises
    ------
    BranchAmbiguity
        At the first grid point (rows in order on a shared point) where both
        candidates are equidistant from the previous sample, within
        ``BRANCH_AMBIGUITY_RTOL``.
    """
    cur, prev = principal[:, 1:], principal[:, :-1]
    d_keep = np.abs(cur - prev)
    d_flip = np.abs(cur + prev)
    steps = np.where(d_keep < d_flip, 1, -1).astype(np.int8)
    signs = np.concatenate(
        [np.asarray(first_sign, dtype=np.int8)[:, None], steps], axis=1
    ).cumprod(axis=1, dtype=np.int8)
    roots = np.where(signs > 0, principal, -principal)
    roots[:, 0] = np.asarray(first_sign) * principal[:, 0]
    tie = np.abs(d_keep - d_flip) <= BRANCH_AMBIGUITY_RTOL * np.maximum(d_keep, d_flip)
    if tie.any():
        k, j = np.argwhere(tie.T)[0]
        raise BranchAmbiguity(
            f"{contexts[j]}: both roots +-{complex(principal[j, k + 1]):.6e} "
            f"equidistant from previous sample {complex(roots[j, k]):.6e}",
            grid_index=int(k) + 1,
        )
    return roots, signs


def uniform_grid(grid) -> tuple[np.ndarray, float]:
    """A float copy of the grid and its spacing.

    The copy keeps the caller's array writeable when a series freezes its
    grid, and out of reach of the caller once it sits on a series or a
    trajectory.

    Raises
    ------
    ValueError
        If the grid is not one-dimensional with at least 2 points, or not
        uniformly increasing: the first step must be positive and finite,
        and every step within 1e-9 of it, relative.
    """
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    steps = np.diff(grid)
    h = float(steps[0])
    if not 0.0 < h < np.inf or not np.all(np.abs(steps - h) <= 1e-9 * h):
        raise ValueError("grid must be uniformly increasing")
    return grid, h


def snapshot_series(
    params: SystemParams,
    field: FieldModel,
    grid: np.ndarray,
) -> SnapshotSeries:
    """Evaluate every dressed-state quantity on a uniform grid of >= 2 points.

    With delta the static :func:`detuning` and gamma = (gamma_g + gamma_e)/2:

    * delta_tilde = delta - i gamma - (dphi - i Omega^-1 dOmega);
    * omega_tilde = sgn(delta) sqrt(Omega^2 + delta_tilde^2 - 2i d_delta_tilde);
    * Lambda_1,2 = (delta_tilde +- omega_tilde)/2 and
      Lambda'_j = Lambda_j - i (2 omega_tilde)^-1 d_omega_tilde, so that
      Lambda'_1 - Lambda'_2 = omega_tilde exactly;
    * COS(theta/2) = sqrt(Lambda'_1/omega_tilde) and
      SIN(theta/2) = sgn(delta) sqrt(-Lambda'_2/omega_tilde);
    * omega'_G = omega_g + Lambda_2 and
      omega'_E = omega_e - Lambda_2 - i gamma - (dphi - i Omega^-1 dOmega),
      all nonadiabatic terms on the excited side.

    The sgn(delta) factors fix the first grid point only; afterwards each
    square root keeps the sign nearer its previous sample. Branch continuity
    is an order-dependent decision, evaluated for the whole grid at once as
    a prefix product of signs (see :func:`_track_branches`); distinct series
    are independent.

    Raises
    ------
    ValueError
        If the grid is not uniform or too short.
    EnvelopeUnderflow, BranchAmbiguity, DegenerateRabi, NonFiniteValue
        With the offending grid index attached; NonFiniteValue when the
        radicand of the nonadiabatic Rabi frequency or its finite-difference
        time derivative overflows.
    """
    grid, h = uniform_grid(grid)

    omega = params.mu * field.envelope.omega(grid)
    if np.any(omega < OMEGA_FLOOR):
        k = int(np.argmax(omega < OMEGA_FLOOR))
        raise EnvelopeUnderflow(
            f"Omega({grid[k]}) = {omega[k]:.3e} below floor {OMEGA_FLOOR:.3e}",
            grid_index=k,
        )
    log_deriv = field.envelope.log_deriv(grid)
    dlog_deriv = field.envelope.dlog_deriv(grid)
    phi = field.phi(grid)
    dphi = field.dphi(grid)
    d2phi = field.d2phi(grid)

    delta = detuning(params, field)
    sign_delta = 1 if delta >= 0.0 else -1

    delta_tilde = (
        delta
        - 1j * params.gamma_sum_half
        - (dphi - 1j * log_deriv)
    ).astype(complex)
    d_delta_tilde = (-d2phi + 1j * dlog_deriv).astype(complex)

    # The radicand Omega^2 + delta_tilde^2 - 2i d_delta_tilde, written out in
    # real and imaginary parts in the order Python's complex arithmetic
    # evaluates it. NumPy's complex expression rounds differently in the
    # last bit on chirped or damped pulses (three of the shipped scenarios),
    # which would change the bytes of their tables.
    a, b = delta_tilde.real, delta_tilde.imag
    c, d = d_delta_tilde.real, d_delta_tilde.imag
    radicand = np.empty(len(grid), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        radicand.real = (omega * omega + (a * a - b * b)) - (0.0 * c - 2.0 * d)
        radicand.imag = (0.0 + (a * b + b * a)) - (0.0 * d + 2.0 * c)
    require_finite("nonadiabatic Rabi frequency radicand", radicand)
    (omega_tilde,), (branch_rabi,) = _track_branches(
        np.sqrt(radicand)[None], (sign_delta,), ("nonadiabatic Rabi frequency",)
    )

    with np.errstate(over="ignore", invalid="ignore"):
        d_omega_tilde = _central_diff(omega_tilde, h)
    require_finite("d omega_tilde/dt", d_omega_tilde)

    if np.any(np.abs(omega_tilde) < RABI_DEGENERACY_FLOOR):
        k = int(np.argmax(np.abs(omega_tilde) < RABI_DEGENERACY_FLOOR))
        raise DegenerateRabi(
            f"|omega_tilde| = {abs(omega_tilde[k]):.3e} below "
            f"{RABI_DEGENERACY_FLOOR:.0e}", grid_index=k,
        )
    lam1 = 0.5 * (delta_tilde + omega_tilde)
    lam2 = 0.5 * (delta_tilde - omega_tilde)
    shift = -1j * d_omega_tilde / (2.0 * omega_tilde)
    lam_t1 = lam1 + shift
    lam_t2 = lam2 + shift

    (cos_half, sin_half), (branch_cos, branch_sin) = _track_branches(
        np.sqrt(np.stack([lam_t1, -lam_t2]) / omega_tilde),
        (1, sign_delta),
        ("COS(theta/2)", "SIN(theta/2)"),
    )

    omega_G = params.omega_g + lam2
    omega_E = (
        params.omega_e
        - lam2
        - 1j * params.gamma_sum_half
        - (dphi - 1j * log_deriv)
    )

    series = SnapshotSeries(
        params=params,
        field=field,
        grid=grid,
        sign_delta=sign_delta,
        delta=delta,
        omega=np.asarray(omega, dtype=float),
        log_deriv=np.asarray(log_deriv, dtype=float),
        phi=np.asarray(phi, dtype=float),
        dphi=np.asarray(dphi, dtype=float),
        delta_tilde=delta_tilde,
        d_delta_tilde=d_delta_tilde,
        omega_tilde=omega_tilde,
        d_omega_tilde=d_omega_tilde,
        lambda1=lam1,
        lambda2=lam2,
        lambda_t1=lam_t1,
        lambda_t2=lam_t2,
        cos_half=cos_half,
        sin_half=sin_half,
        omega_G=omega_G,
        omega_E=omega_E,
        branch_log={
            "omega_tilde": branch_rabi,
            "cos_half": branch_cos,
            "sin_half": branch_sin,
        },
    )
    values = [getattr(series, f.name) for f in fields(series)]
    for arr in [*values, *series.branch_log.values()]:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return series
