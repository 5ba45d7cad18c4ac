"""Dressed-state matrix elements, transition probability and bare-basis
amplitude ratios along a snapshot series.

Each overlap is the product of a mixing-function bracket and an exponential
of a cumulative time integral from the grid start. Every integral is a
trapezoid sum on the series grid. Each function takes a
:class:`~nads.nads_core.SnapshotSeries` and returns fresh whole-series
arrays, one value per grid point. The integrals of <G|G>, <E|E> and <E|G>
live on the series (``int_omega_G``, ``int_omega_E``, ``int_eg_phase``),
each accumulated once however many functions read it; :func:`ge_overlap`
accumulates its own, so the conjugation symmetry compares two independent
integrals.

The transition probability has two routes, the pointwise mixing functions
and the full overlap quotient, so that the cancellation of the exponentials
is verified rather than assumed. The overlaps are written with the
dressed-state frequencies; the tests cross-check them against the expanded
arrangement via the envelope log-derivative and the nonadiabatic Rabi
frequency.
"""

from __future__ import annotations

import numpy as np

from .field_model import InitialState, _require_choice
from .nads_core import SnapshotSeries, _cumtrapz, require_finite

__all__ = [
    "norms",
    "eg_overlap",
    "ge_overlap",
    "mixing_probability",
    "p_via_overlaps",
    "amplitude_ratios",
]

#: |denominator| below this multiple of |numerator| makes the ratio undefined.
RATIO_FLOOR = 1e-14


def _bracket_im(u, v):
    """Imaginary part of the purely imaginary bracket u v* - u* v.

    Written out in real arithmetic, Im(u v*) - Im(u* v), so exchanging u and
    v negates the result exactly; NumPy's complex product may fuse
    multiply-adds and would break that symmetry in the last bit.
    """
    return (u.imag * v.real - u.real * v.imag) - (u.real * v.imag - u.imag * v.real)


def _weight(sin_half, cos_half):
    """|s|^2 + |c|^2 elementwise: P's denominator and both norms' factor."""
    return np.abs(sin_half) ** 2 + np.abs(cos_half) ** 2


def mixing_probability(sin_half, cos_half):
    """|s c* - s* c|^2 / (|s|^2 + |c|^2)^2 elementwise, for scalars or arrays.

    The dressed-state transition probability from the mixing functions
    alone: the overlap exponentials cancel exactly in the normalized
    quotient, so it needs no integrals. Zero when s and c are real.

    P is the instantaneous dressed-state admixture, not the population a
    pulse leaves behind: once the field is off the dressed states are the
    bare ones and P returns to 0. That population is the integrated final
    |c_e|^2 (the ``finalPe`` sweep reducer).

    Exchanging s and c gives bitwise-identical results.
    """
    return _bracket_im(sin_half, cos_half) ** 2 / _weight(sin_half, cos_half) ** 2


def norms(series: SnapshotSeries) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms (gg, ee) of the ground and excited dressed states:
    [|SIN|^2 + |COS|^2] exp(2 int Im omega'_G) and the same with omega'_E.

    Raises
    ------
    NonFiniteValue
        At the first grid index where either norm overflows.
    """
    weight = _weight(series.sin_half, series.cos_half)
    with np.errstate(over="ignore", invalid="ignore"):
        gg = weight * np.exp(2.0 * series.int_omega_G.imag)
        ee = weight * np.exp(2.0 * series.int_omega_E.imag)
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
        eg = 1j * bracket * np.exp(1j * series.int_eg_phase)
    require_finite("overlap <E|G>", eg)
    return eg


def ge_overlap(series: SnapshotSeries) -> np.ndarray:
    """Ground-excited overlap <G|E> =
    [COS SIN* - COS* SIN] exp{i int [conj(omega'_G) - omega'_E + carrier]}.

    Built by its own formula and its own integral, not as conj(<E|G>) nor
    from the series' ``int_eg_phase``, so that the conjugation symmetry is a
    checked property rather than a shortcut.
    """
    carrier = series.field.carrier_omega
    int_ge = _cumtrapz(np.conj(series.omega_G) - series.omega_E + carrier, series.grid)
    bracket_ge = 1j * _bracket_im(series.cos_half, series.sin_half)
    return bracket_ge * np.exp(1j * int_ge)


def p_via_overlaps(series: SnapshotSeries) -> np.ndarray:
    """Transition probability from the overlap quotient |<E|G>|^2 / (<G|G> <E|E>).

    It is :func:`mixing_probability` times the three exponentials,
    combined in one exponent, so long damped runs whose norms underflow stay
    finite; the integrals are still accumulated separately, so their
    cancellation is checked numerically rather than assumed. Like
    :func:`mixing_probability`, it is the instantaneous dressed-state
    admixture, which returns to 0 once the field is off, not the population
    a pulse leaves behind.
    """
    log_ratio = (-2.0 * series.int_eg_phase.imag - 2.0 * series.int_omega_G.imag
                 - 2.0 * series.int_omega_E.imag)
    return mixing_probability(series.sin_half, series.cos_half) * np.exp(log_ratio)


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
    _require_choice("init", init, InitialState)
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
