"""Dressed-state matrix elements, transition probability and bare-basis
amplitude ratios along a snapshot series.

Each overlap is the product of a mixing-function bracket and an exponential
of a cumulative time integral from the grid start. Every integral is a
trapezoid sum on the series grid. Each overlap is a whole-series array of
an :class:`OverlapArrays`, built read-only on first read together with only
the integrals it needs.

Two algebraically equivalent routes are provided for each overlap (a concise
form via the dressed-state frequencies and an expanded form via the
envelope log-derivative and the nonadiabatic Rabi frequency) so tests can
cross-check the rearrangement, and for the transition probability (pointwise
mixing functions vs. the full overlap quotient) so the exponential
cancellation is verified rather than assumed.
"""

from __future__ import annotations

import functools
from typing import Literal

import numpy as np

from .nads_core import SnapshotSeries

__all__ = [
    "OverlapArrays",
    "mixing_probability",
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


def _built(method):
    """A cached property whose array is made read-only when first built."""

    @functools.wraps(method)
    def build(self):
        arr = method(self)
        arr.flags.writeable = False
        return arr

    return functools.cached_property(build)


class OverlapArrays:
    """Whole-series overlaps and transition probabilities of one series, one
    value per grid point. Each array is built on first read, together with
    only the integrals it needs, and is read-only; callers that read several
    arrays hold one instance so the integrals are shared.

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

    def __init__(self, series: SnapshotSeries):
        self._series = series

    def _integral(self, y: np.ndarray) -> np.ndarray:
        return _cumtrapz(y, self._series.grid)

    @functools.cached_property
    def _weight(self):
        return np.abs(self._series.sin_half) ** 2 + np.abs(self._series.cos_half) ** 2

    @functools.cached_property
    def _bracket_eg(self):
        return _bracket_im(self._series.sin_half, self._series.cos_half)

    @functools.cached_property
    def _damping(self):
        grid = self._series.grid
        return -self._series.params.gamma_sum_half * (grid - grid[0])

    @functools.cached_property
    def _ramp(self):
        # Phase integrals exclude the constant carrier ramp, applied exactly here.
        grid = self._series.grid
        return self._series.field.carrier_omega * (grid - grid[0])

    @functools.cached_property
    def _int_eg(self):
        series = self._series
        carrier = series.field.carrier_omega
        return self._integral(np.conj(series.omega_E) - series.omega_G - carrier)

    @functools.cached_property
    def _int_G(self):
        return self._integral(self._series.omega_G)

    @functools.cached_property
    def _int_E(self):
        return self._integral(self._series.omega_E)

    @_built
    def gg(self):
        return self._weight * np.exp(2.0 * self._int_G.imag)

    @_built
    def gg_expanded(self):
        series = self._series
        int_log_m = self._integral(series.log_deriv - series.omega_tilde.imag)
        return self._weight * np.exp(self._damping + int_log_m)

    @_built
    def ee(self):
        return self._weight * np.exp(2.0 * self._int_E.imag)

    @_built
    def ee_expanded(self):
        series = self._series
        int_log_p = self._integral(series.log_deriv + series.omega_tilde.imag)
        return self._weight * np.exp(self._damping + int_log_p)

    @_built
    def eg(self):
        return 1j * self._bracket_eg * np.exp(1j * self._int_eg)

    @_built
    def eg_expanded(self):
        series = self._series
        int_exp_eg = self._integral(series.log_deriv + 1j * series.omega_tilde.real)
        return 1j * self._bracket_eg * np.exp(self._damping + int_exp_eg)

    @_built
    def ge(self):
        series = self._series
        carrier = series.field.carrier_omega
        int_ge = self._integral(np.conj(series.omega_G) - series.omega_E + carrier)
        bracket_ge = 1j * _bracket_im(series.cos_half, series.sin_half)
        return bracket_ge * np.exp(1j * int_ge)

    @_built
    def p_ge(self):
        return mixing_probability(self._series.sin_half, self._series.cos_half)

    @_built
    def p_ge_via_overlaps(self):
        # |<E|G>|^2 / (<G|G><E|E>) with the three exponentials combined in
        # one exponent, so long damped runs whose norms underflow stay
        # finite; the integrals are still accumulated separately, so their
        # cancellation is checked numerically rather than assumed.
        log_ratio = -2.0 * self._int_eg.imag - 2.0 * self._int_G.imag - 2.0 * self._int_E.imag
        return self._bracket_eg**2 / self._weight**2 * np.exp(log_ratio)

    @_built
    def ground_real(self):
        return np.exp(-1j * self._int_G)

    @_built
    def ground_virtual(self):
        return np.exp(-1j * (self._int_G + self._ramp) - 1j * self._series.phi)

    @_built
    def excited_real(self):
        return np.exp(-1j * self._int_E - 1j * self._series.phi)

    @_built
    def excited_virtual(self):
        return np.exp(-1j * (self._int_E - self._ramp))


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
    finite where the component weights over- or underflow on long damped
    runs.

    The ratio is NaN wherever |COS| is below ``RATIO_FLOOR`` times |SIN|.
    """
    if init not in ("ground", "excited"):
        raise ValueError(f"init must be 'ground' or 'excited', got {init!r}")
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
