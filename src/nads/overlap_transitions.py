"""Dressed-state matrix elements, transition probability and bare-basis
amplitude reconstruction.

Each overlap is the product of a mixing-function bracket and an exponential
of a cumulative time integral from the grid start. Every integral is a
trapezoid sum on the series grid. All overlaps are built as whole-series
arrays once per series (:func:`overlap_arrays`) and cached immutably on it;
the per-point functions are index views returning Python scalars.

Two algebraically equivalent routes are provided for each overlap (a concise
form via the dressed-state frequencies and an expanded form via the
envelope log-derivative and the nonadiabatic Rabi frequency) so tests can
cross-check the rearrangement, and for the transition probability (pointwise
mixing functions vs. the full overlap quotient) so the exponential
cancellation is verified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .errors import RatioUndefined
from .nads_core import NadsSnapshot, SnapshotSeries

__all__ = [
    "OverlapArrays",
    "OverlapSet",
    "ReconstructedAmplitudes",
    "overlap_gg",
    "overlap_gg_expanded",
    "overlap_ee",
    "overlap_ee_expanded",
    "overlap_eg",
    "overlap_eg_expanded",
    "overlap_ge",
    "overlaps",
    "overlap_arrays",
    "mixing_probability",
    "amplitude_ratios",
    "transition_probability",
    "transition_probability_via_overlaps",
    "reconstruct_bare_amplitudes",
]

#: |denominator| below this multiple of |numerator| makes the ratio undefined.
RATIO_FLOOR = 1e-14

InitialState = Literal["ground", "excited"]


@dataclass(frozen=True)
class OverlapSet:
    """The three dressed-state overlaps and the transition probability at one
    grid point. ``gg`` and ``ee`` are real positive norms squared; ``eg`` is
    the excited-ground overlap; ``p_ge`` lies in [0, 1]."""

    t: float
    gg: float
    ee: float
    eg: complex
    p_ge: float


@dataclass(frozen=True)
class ReconstructedAmplitudes:
    """Bare-basis content of the occupied dressed state at one grid point.

    ``ratio`` is c_e/c_g for a ground start and c_g/c_e for an excited
    start; absolute amplitudes are not reconstructed because the global
    prefactor is not part of the contract. ``components`` maps each of the
    four real/virtual dressed-state components to its bare state ("g" or
    "e") and its unit-weight exponential coefficient.
    """

    t: float
    init: InitialState
    ratio: complex
    components: Mapping[str, tuple[str, complex]]


@dataclass(frozen=True)
class OverlapArrays:
    """Whole-series overlaps and transition probabilities, one value per grid
    point, built once per series by :func:`overlap_arrays`.

    ``p_ge`` is the pointwise (mixing-function) probability and
    ``p_ge_via_overlaps`` the overlap-quotient route. The four remaining
    arrays are the unit-weight exponential coefficients of the real and
    virtual dressed-state components, see :func:`reconstruct_bare_amplitudes`.
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


def _check_index(series: SnapshotSeries, k: int) -> int:
    k = int(k)
    if not 0 <= k < len(series):
        raise IndexError(f"grid index {k} outside [0, {len(series)})")
    return k


def overlap_gg(series: SnapshotSeries, k: int) -> float:
    """Squared norm of the ground dressed state at grid point ``k``:
    [|SIN|^2 + |COS|^2] exp(2 int Im omega_G)."""
    return float(overlap_arrays(series).gg[_check_index(series, k)])


def overlap_gg_expanded(series: SnapshotSeries, k: int) -> float:
    """Ground norm squared via the expanded exponent
    -(gamma_g + gamma_e)/2 (t - t0) + int (log_deriv - Im omega_tilde)."""
    return float(overlap_arrays(series).gg_expanded[_check_index(series, k)])


def overlap_ee(series: SnapshotSeries, k: int) -> float:
    """Squared norm of the excited dressed state at grid point ``k``:
    [|SIN|^2 + |COS|^2] exp(2 int Im omega_E)."""
    return float(overlap_arrays(series).ee[_check_index(series, k)])


def overlap_ee_expanded(series: SnapshotSeries, k: int) -> float:
    """Excited norm squared via the expanded exponent
    -(gamma_g + gamma_e)/2 (t - t0) + int (log_deriv + Im omega_tilde)."""
    return float(overlap_arrays(series).ee_expanded[_check_index(series, k)])


def overlap_eg(series: SnapshotSeries, k: int) -> complex:
    """Excited-ground overlap at grid point ``k``:
    [SIN COS* - SIN* COS] exp{i int [conj(omega_E) - omega_G - carrier]}.

    The bracket is 2i Im(SIN COS*), purely imaginary; the overlap vanishes
    identically when the mixing functions are real.
    """
    return complex(overlap_arrays(series).eg[_check_index(series, k)])


def overlap_eg_expanded(series: SnapshotSeries, k: int) -> complex:
    """Excited-ground overlap via the expanded exponent
    -(gamma_g + gamma_e)/2 (t - t0) + int (log_deriv + i Re omega_tilde)."""
    return complex(overlap_arrays(series).eg_expanded[_check_index(series, k)])


def overlap_ge(series: SnapshotSeries, k: int) -> complex:
    """Ground-excited overlap computed by its own mirrored formula,
    [COS SIN* - COS* SIN] exp{i int [conj(omega_G) - omega_E + carrier]},
    not by conjugating :func:`overlap_eg`; equality with that conjugate is a
    consistency property, not an implementation shortcut."""
    return complex(overlap_arrays(series).ge[_check_index(series, k)])


def overlaps(series: SnapshotSeries, k: int) -> OverlapSet:
    """All overlaps and the pointwise transition probability at one point."""
    k = _check_index(series, k)
    arrays = overlap_arrays(series)
    return OverlapSet(
        t=float(series.grid[k]),
        gg=float(arrays.gg[k]),
        ee=float(arrays.ee[k]),
        eg=complex(arrays.eg[k]),
        p_ge=float(arrays.p_ge[k]),
    )


def transition_probability(snapshot: NadsSnapshot) -> float:
    """Normalized dressed-state transition probability from the mixing
    functions alone: |s c* - s* c|^2 / (|s|^2 + |c|^2)^2.

    The overlap exponentials cancel exactly in the normalized quotient, so
    this pointwise form needs no integrals. Zero when s and c are real.
    """
    return float(mixing_probability(snapshot.sin_half, snapshot.cos_half))


def transition_probability_via_overlaps(series: SnapshotSeries, k: int) -> float:
    """Transition probability as |<E|G>|^2 / (<G|G> <E|E>) with the full
    exponential factors retained; agreement with the pointwise route checks
    the cancellation numerically. The quotient is formed in log space, so it
    stays finite where the norms themselves underflow."""
    return float(overlap_arrays(series).p_ge_via_overlaps[_check_index(series, k)])


def _ratio_terms(series: SnapshotSeries, init: InitialState, k):
    """Numerator and denominator bare amplitudes of the occupied dressed
    state at index ``k`` (an int or a slice)."""
    if init not in ("ground", "excited"):
        raise ValueError(f"init must be 'ground' or 'excited', got {init!r}")
    arrays = overlap_arrays(series)
    s = series.sin_half[k]
    c = series.cos_half[k]
    if init == "ground":
        # coefficients on |e> and |g>
        return s * arrays.ground_virtual[k], c * arrays.ground_real[k]
    # coefficients on |g> and |e>
    return -s * arrays.excited_virtual[k], c * arrays.excited_real[k]


def amplitude_ratios(series: SnapshotSeries, init: InitialState) -> np.ndarray:
    """The ratio of :func:`reconstruct_bare_amplitudes` at every grid point,
    NaN wherever that function raises :class:`RatioUndefined`."""
    num, den = _ratio_terms(series, init, slice(None))
    undefined = np.abs(den) < RATIO_FLOOR * np.abs(num)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(undefined, np.nan, num / den)


def reconstruct_bare_amplitudes(
    series: SnapshotSeries,
    k: int,
    init: InitialState,
) -> ReconstructedAmplitudes:
    """Bare-basis amplitude ratio of the dressed state occupied since t0.

    A ground start occupies the ground dressed state, whose bare content is
    COS on |g> (real component) and SIN on |e> (virtual component), each
    carrying its phase-integral exponential; the ratio c_e/c_g is therefore
    (SIN/COS) exp(-i carrier (t - t0) - i phi(t)). An excited start gives
    c_g/c_e = -(SIN/COS) exp(+i carrier (t - t0) + i phi(t)). Both are
    independent of the overall prefactor of the solution.

    Raises
    ------
    RatioUndefined
        If the denominator amplitude is below ``RATIO_FLOOR`` times the
        numerator amplitude.
    """
    k = _check_index(series, k)
    num, den = _ratio_terms(series, init, k)
    if abs(den) < RATIO_FLOOR * abs(num):
        raise RatioUndefined(
            f"denominator amplitude {abs(den):.3e} below {RATIO_FLOOR:.0e} x "
            f"numerator {abs(num):.3e} at t = {series.grid[k]}",
            grid_index=k,
        )
    arrays = overlap_arrays(series)
    components = {
        "ground_real": ("g", complex(arrays.ground_real[k])),
        "ground_virtual": ("e", complex(arrays.ground_virtual[k])),
        "excited_real": ("e", complex(arrays.excited_real[k])),
        "excited_virtual": ("g", complex(arrays.excited_virtual[k])),
    }
    return ReconstructedAmplitudes(
        t=float(series.grid[k]),
        init=init,
        ratio=complex(num / den),
        components=components,
    )
