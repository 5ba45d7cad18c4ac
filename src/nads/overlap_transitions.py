"""Dressed-state matrix elements, transition probability and bare-basis
amplitude ratios along a snapshot series.

Each overlap is the product of a mixing-function bracket and an exponential
of a cumulative time integral from the grid start. Every integral is a
trapezoid sum on the series grid. Each function takes a
:class:`~nads.nads_core.SnapshotSeries`, computes only the integrals it
needs and returns fresh whole-series arrays, one value per grid point.

Two algebraically equivalent routes are provided for each overlap (a concise
form via the dressed-state frequencies and an expanded form via the
envelope log-derivative and the nonadiabatic Rabi frequency) so tests can
cross-check the rearrangement, and for the transition probability (pointwise
mixing functions vs. the full overlap quotient) so the exponential
cancellation is verified rather than assumed.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .nads_core import SnapshotSeries, _require_one_of, require_finite

__all__ = [
    "norms",
    "eg_overlap",
    "ge_overlap",
    "expanded_overlaps",
    "mixing_probability",
    "p_via_overlaps",
    "amplitude_ratios",
]

#: |denominator| below this multiple of |numerator| makes the ratio undefined.
RATIO_FLOOR = 1e-14

InitialState = Literal["ground", "excited"]


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral from x[0], starting at 0 (the operation
    order of scipy.integrate.cumulative_trapezoid with initial=0)."""
    out = np.zeros(len(y), dtype=np.result_type(y, x))
    np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0, out=out[1:])
    return out


def _bracket_im(u, v):
    """Imaginary part of the purely imaginary bracket u v* - u* v.

    Written out in real arithmetic, Im(u v*) - Im(u* v), so exchanging u and
    v negates the result exactly; NumPy's complex product may fuse
    multiply-adds and would break that symmetry in the last bit.
    """
    return (u.imag * v.real - u.real * v.imag) - (u.real * v.imag - u.imag * v.real)


def mixing_probability(sin_half, cos_half):
    """|s c* - s* c|^2 / (|s|^2 + |c|^2)^2 elementwise, for scalars or arrays.

    The dressed-state transition probability from the mixing functions
    alone: the overlap exponentials cancel exactly in the normalized
    quotient, so it needs no integrals. Zero when s and c are real.

    Exchanging s and c gives bitwise-identical results.
    """
    weight = np.abs(sin_half) ** 2 + np.abs(cos_half) ** 2
    return _bracket_im(sin_half, cos_half) ** 2 / weight**2


def _weight(series: SnapshotSeries) -> np.ndarray:
    return np.abs(series.sin_half) ** 2 + np.abs(series.cos_half) ** 2


def _int_eg(series: SnapshotSeries) -> np.ndarray:
    carrier = series.field.carrier_omega
    return _cumtrapz(np.conj(series.omega_E) - series.omega_G - carrier, series.grid)


def norms(series: SnapshotSeries) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms (gg, ee) of the ground and excited dressed states:
    [|SIN|^2 + |COS|^2] exp(2 int Im omega'_G) and the same with omega'_E.

    Raises
    ------
    NonFiniteValue
        At the first grid index where either norm overflows.
    """
    weight = _weight(series)
    int_g = _cumtrapz(series.omega_G, series.grid)
    int_e = _cumtrapz(series.omega_E, series.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        gg = weight * np.exp(2.0 * int_g.imag)
        ee = weight * np.exp(2.0 * int_e.imag)
    require_finite("ground dressed-state norm <G|G>", gg)
    require_finite("excited dressed-state norm <E|E>", ee)
    return gg, ee


def eg_overlap(series: SnapshotSeries) -> np.ndarray:
    """Excited-ground overlap <E|G> =
    [SIN COS* - SIN* COS] exp{i int [conj(omega'_E) - omega'_G - carrier]},
    which vanishes identically when the mixing functions are real.

    Raises
    ------
    NonFiniteValue
        At the first grid index where the overlap overflows.
    """
    bracket = _bracket_im(series.sin_half, series.cos_half)
    with np.errstate(over="ignore", invalid="ignore"):
        eg = 1j * bracket * np.exp(1j * _int_eg(series))
    require_finite("overlap <E|G>", eg)
    return eg


def ge_overlap(series: SnapshotSeries) -> np.ndarray:
    """Ground-excited overlap <G|E> =
    [COS SIN* - COS* SIN] exp{i int [conj(omega'_G) - omega'_E + carrier]}.

    Built by its own formula, not as conj(<E|G>), so that the conjugation
    symmetry is a checked property rather than a shortcut.
    """
    carrier = series.field.carrier_omega
    int_ge = _cumtrapz(np.conj(series.omega_G) - series.omega_E + carrier, series.grid)
    bracket_ge = 1j * _bracket_im(series.cos_half, series.sin_half)
    return bracket_ge * np.exp(1j * int_ge)


def expanded_overlaps(series: SnapshotSeries) -> tuple[np.ndarray, ...]:
    """(gg, ee, eg) in the expanded arrangement: exponent
    -(gamma_g + gamma_e)/2 (t - t0) + int (log_deriv -+ Im omega_tilde) for
    gg and ee, and int (log_deriv + i Re omega_tilde) for eg."""
    grid = series.grid
    weight = _weight(series)
    damping = -series.params.gamma_sum_half * (grid - grid[0])
    int_log_m = _cumtrapz(series.log_deriv - series.omega_tilde.imag, grid)
    int_log_p = _cumtrapz(series.log_deriv + series.omega_tilde.imag, grid)
    int_exp_eg = _cumtrapz(series.log_deriv + 1j * series.omega_tilde.real, grid)
    bracket = _bracket_im(series.sin_half, series.cos_half)
    return (
        weight * np.exp(damping + int_log_m),
        weight * np.exp(damping + int_log_p),
        1j * bracket * np.exp(damping + int_exp_eg),
    )


def p_via_overlaps(series: SnapshotSeries) -> np.ndarray:
    """Transition probability from the overlap quotient |<E|G>|^2 / (<G|G> <E|E>).

    The three exponentials are combined in one exponent, so long damped runs
    whose norms underflow stay finite; the integrals are still accumulated
    separately, so their cancellation against :func:`mixing_probability` is
    checked numerically rather than assumed.
    """
    int_g = _cumtrapz(series.omega_G, series.grid)
    int_e = _cumtrapz(series.omega_E, series.grid)
    log_ratio = -2.0 * _int_eg(series).imag - 2.0 * int_g.imag - 2.0 * int_e.imag
    bracket = _bracket_im(series.sin_half, series.cos_half)
    return bracket**2 / _weight(series) ** 2 * np.exp(log_ratio)


def amplitude_ratios(series: SnapshotSeries, init: InitialState) -> np.ndarray:
    """Bare-basis amplitude ratio of the dressed state occupied since t0, at
    every grid point.

    A ground start occupies the ground dressed state, whose bare content is
    COS on |g> (real component) and SIN on |e> (virtual component), each
    carrying its phase-integral exponential; the ratio c_e/c_g is therefore
    (SIN/COS) exp(-i carrier (t - t0) - i phi(t)). An excited start gives
    c_g/c_e = -(SIN/COS) exp(+i carrier (t - t0) + i phi(t)). Both are
    independent of the overall prefactor of the solution, which is not
    reconstructed. The int omega'_G and int omega'_E exponentials of the two
    components cancel analytically and are not formed, so the ratio stays
    finite where those exponentials over- or underflow on long damped runs.

    The ratio is NaN wherever |COS| is below ``RATIO_FLOOR`` times |SIN|.
    """
    _require_one_of("init", init, InitialState)
    s, c = series.sin_half, series.cos_half
    grid = series.grid
    phase = series.field.carrier_omega * (grid - grid[0]) + series.phi
    if init == "ground":
        num = s * np.exp(-1j * phase)  # coefficient on |e>; COS is on |g>
    else:
        num = -s * np.exp(1j * phase)  # coefficient on |g>; COS is on |e>
    undefined = np.abs(c) < RATIO_FLOOR * np.abs(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(undefined, np.nan, num / c)
