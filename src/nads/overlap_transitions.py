"""Dressed-state matrix elements, transition probability and bare-basis
amplitude ratios along a snapshot series.

Each overlap is the product of a mixing-function bracket and an exponential
of a cumulative time integral from the grid start. Every integral is a
trapezoid sum on the series grid. All overlaps are built as whole-series
arrays once per series (:func:`overlap_arrays`) and cached immutably on it.

Two algebraically equivalent routes are provided for each overlap (a concise
form via the dressed-state frequencies and an expanded form via the
envelope log-derivative and the nonadiabatic Rabi frequency) so tests can
cross-check the rearrangement, and for the transition probability (pointwise
mixing functions vs. the full overlap quotient) so the exponential
cancellation is verified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .nads_core import SnapshotSeries

__all__ = [
    "OverlapArrays",
    "overlap_arrays",
    "mixing_probability",
    "amplitude_ratios",
]

#: |denominator| below this multiple of |numerator| makes the ratio undefined.
RATIO_FLOOR = 1e-14

InitialState = Literal["ground", "excited"]


@dataclass(frozen=True)
class OverlapArrays:
    """Whole-series overlaps and transition probabilities, one value per grid
    point, built once per series by :func:`overlap_arrays`.

    ``gg`` and ``ee`` are the squared norms of the ground and excited
    dressed states, [|SIN|^2 + |COS|^2] exp(2 int Im omega'_G) and the same
    with omega'_E; ``eg`` is the excited-ground overlap
    [SIN COS* - SIN* COS] exp{i int [conj(omega'_E) - omega'_G - carrier]},
    which vanishes identically when the mixing functions are real; ``ge`` is
    its mirror [COS SIN* - COS* SIN] exp{i int [conj(omega'_G) - omega'_E +
    carrier]}, built by its own formula so that ``ge == conj(eg)`` is a
    checked property, not a shortcut. The ``*_expanded`` forms use the
    exponent -(gamma_g + gamma_e)/2 (t - t0) + int (log_deriv -+ Im
    omega_tilde) for ``gg``/``ee`` and int (log_deriv + i Re omega_tilde)
    for ``eg``.

    ``p_ge`` is the pointwise (mixing-function) probability and
    ``p_ge_via_overlaps`` the overlap quotient |<E|G>|^2 / (<G|G> <E|E>),
    formed in log space so it stays finite where the norms underflow.

    The four remaining arrays are the unit-weight exponential coefficients
    of the dressed-state components, each multiplying one bare state:
    ``ground_real`` multiplies COS on |g> and ``ground_virtual`` SIN on |e>
    (the ground dressed state); ``excited_real`` multiplies COS on |e> and
    ``excited_virtual`` -SIN on |g> (the excited dressed state).
    """

    gg: np.ndarray
    gg_expanded: np.ndarray
    ee: np.ndarray
    ee_expanded: np.ndarray
    eg: np.ndarray
    eg_expanded: np.ndarray
    ge: np.ndarray
    p_ge: np.ndarray
    p_ge_via_overlaps: np.ndarray
    ground_real: np.ndarray
    ground_virtual: np.ndarray
    excited_real: np.ndarray
    excited_virtual: np.ndarray


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


def overlap_arrays(series: SnapshotSeries) -> OverlapArrays:
    """Every overlap and transition probability of ``series`` as arrays.

    Built on first use from the series' current arrays and cached on the
    series (``series.overlap_cache``); the returned arrays are read-only.
    """
    cached = series.overlap_cache
    if cached is not None:
        return cached
    grid = series.grid
    s = series.sin_half
    c = series.cos_half
    carrier = series.field.carrier_omega
    damping = -series.params.gamma_sum_half * (grid - grid[0])

    int_im_G = _cumtrapz(series.omega_G.imag, grid)
    int_im_E = _cumtrapz(series.omega_E.imag, grid)
    int_eg = _cumtrapz(np.conj(series.omega_E) - series.omega_G - carrier, grid)
    int_ge = _cumtrapz(np.conj(series.omega_G) - series.omega_E + carrier, grid)
    int_log_m = _cumtrapz(series.log_deriv - series.omega_tilde.imag, grid)
    int_log_p = _cumtrapz(series.log_deriv + series.omega_tilde.imag, grid)
    int_exp_eg = _cumtrapz(series.log_deriv + 1j * series.omega_tilde.real, grid)

    weight = np.abs(s) ** 2 + np.abs(c) ** 2
    bracket_eg = 1j * _bracket_im(s, c)
    bracket_ge = 1j * _bracket_im(c, s)
    # |<E|G>|^2 / (<G|G><E|E>) with the three exponentials combined in one
    # exponent, so long damped runs whose norms underflow stay finite; the
    # integrals are still accumulated separately, so their cancellation is
    # checked numerically rather than assumed.
    log_ratio = -2.0 * int_eg.imag - 2.0 * int_im_G - 2.0 * int_im_E
    # Phase integrals exclude the constant carrier ramp, applied exactly here.
    ramp = carrier * (grid - grid[0])
    int_G = _cumtrapz(series.omega_G, grid)
    int_E = _cumtrapz(series.omega_E, grid)
    arrays = OverlapArrays(
        gg=weight * np.exp(2.0 * int_im_G),
        gg_expanded=weight * np.exp(damping + int_log_m),
        ee=weight * np.exp(2.0 * int_im_E),
        ee_expanded=weight * np.exp(damping + int_log_p),
        eg=bracket_eg * np.exp(1j * int_eg),
        eg_expanded=bracket_eg * np.exp(damping + int_exp_eg),
        ge=bracket_ge * np.exp(1j * int_ge),
        p_ge=mixing_probability(s, c),
        p_ge_via_overlaps=_bracket_im(s, c) ** 2 / weight**2 * np.exp(log_ratio),
        ground_real=np.exp(-1j * int_G),
        ground_virtual=np.exp(-1j * (int_G + ramp) - 1j * series.phi),
        excited_real=np.exp(-1j * int_E - 1j * series.phi),
        excited_virtual=np.exp(-1j * (int_E - ramp)),
    )
    for arr in vars(arrays).values():
        arr.flags.writeable = False
    series.overlap_cache = arrays
    return arrays


def amplitude_ratios(series: SnapshotSeries, init: InitialState) -> np.ndarray:
    """Bare-basis amplitude ratio of the dressed state occupied since t0, at
    every grid point.

    A ground start occupies the ground dressed state, whose bare content is
    COS on |g> (real component) and SIN on |e> (virtual component), each
    carrying its phase-integral exponential; the ratio c_e/c_g is therefore
    (SIN/COS) exp(-i carrier (t - t0) - i phi(t)). An excited start gives
    c_g/c_e = -(SIN/COS) exp(+i carrier (t - t0) + i phi(t)). Both are
    independent of the overall prefactor of the solution, which is not
    reconstructed.

    The ratio is NaN wherever the denominator amplitude is below
    ``RATIO_FLOOR`` times the numerator amplitude.
    """
    if init not in ("ground", "excited"):
        raise ValueError(f"init must be 'ground' or 'excited', got {init!r}")
    arrays = overlap_arrays(series)
    s, c = series.sin_half, series.cos_half
    if init == "ground":
        # coefficients on |e> and |g>
        num, den = s * arrays.ground_virtual, c * arrays.ground_real
    else:
        # coefficients on |g> and |e>
        num, den = -s * arrays.excited_virtual, c * arrays.excited_real
    undefined = np.abs(den) < RATIO_FLOOR * np.abs(num)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(undefined, np.nan, num / den)
