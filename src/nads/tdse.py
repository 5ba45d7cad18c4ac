"""Time-dependent Schrodinger integration for the damped driven two-level
system, used as an independent numerical oracle.

Two frames are supported. The lab frame integrates the full equations with
the oscillating carrier resolved (no rotating-wave approximation); the
rotating frame transforms at the carrier frequency and applies the
rotating-wave approximation, which is the frame the dressed-state formulas
implicitly live in. Propagation is classic fourth-order Runge-Kutta with a
fixed substep per run. The accepted substep is the first power-of-two
refinement at which halving it changes the final amplitudes by less than
the tolerance. Since RK4's difference falls 16x per halving, the controller
predicts that count from the first pair of passes and jumps straight to it
(step-size prediction from an a-posteriori error estimate; Hairer, Norsett
and Wanner, "Solving Ordinary Differential Equations I", section II.4). It
keeps the jumped pass only if the three passes show fourth-order
convergence, and falls back to plain doubling otherwise.

The equations are linear, so one RK4 substep is a 2x2 step matrix: a
polynomial in the coupling at the substep's start, middle and end, whose
scalar coefficients depend only on the diagonal rates and the substep (see
:func:`_step_matrices`). Its diagonal sums the small terms first and adds
the identity last. In the rotating frame the chirp's phase factor on the
uniform stage lattice comes by angle addition from one exponential per 64
lattice points (see :func:`_chirp_factor`). A stack of step matrices is one
complex array of shape (2, 2, ...), so multiplying two stacks takes two
broadcast products and a sum.

A pass has two steps. The build (:func:`_intervals`) makes the step
matrices elementwise in NumPy, in blocks of at most ``_BLOCK_SUBSTEPS``
substeps, and multiplies them together per output interval in pairs (an
odd last one folded into the last pair). It keeps one interval propagator
per output interval, 64 bytes per grid point whatever ``n_sub`` is. The
expansion (:func:`_expand`) turns the intervals into the states on the
output grid by a work-efficient scan applied to the state (Blelloch,
"Prefix sums and their applications", CMU-CS-90-190, 1990; see
:func:`_scan`), in chunks of at most ``_EXPAND_ROWS`` rows that carry the
state. :func:`evolve` builds every pass but compares only the last states,
from a pairwise product of the intervals, and expands only the pass it
accepts; it holds the intervals of the current pass only. In the rotating
frame a constant envelope without chirp makes the coupling
time-independent; every substep then has the same step matrix, one row of
them and its interval product serve every interval, and the last state
comes from that interval propagator's power by repeated squaring.

The controller stops with :class:`~nads.errors.ToleranceUnreachable` when
a halving of the substep no longer shrinks the difference between passes:
rounding, not truncation, then sets that difference, and doubling on could
only run toward the substep floor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import StepUnderflow, ToleranceUnreachable
from .field_model import Chirp, FieldModel, SystemParams
from .nads_core import _require_one_of, detuning, uniform_grid
from .overlap_transitions import InitialState

__all__ = [
    "Trajectory",
    "Frame",
    "rhs",
    "propagate_fixed",
    "evolve",
    "rabi_oracle",
    "lz_oracle",
    "rz_oracle",
    "lz_survival",
]

Frame = Literal["lab", "rotating"]

#: Substep below this fraction of the full span aborts the run.
STEP_UNDERFLOW_FRACTION = 1e-12

#: Initial substep target: fastest angular rate times substep, in radians.
_INITIAL_RADIANS_PER_STEP = 0.2

#: Substeps whose step matrices are held in memory at once.
_BLOCK_SUBSTEPS = 4096

#: Stage-lattice points per exponential of the chirp phase factor.
_PHASE_RUN = 64

#: Rows of interval propagators expanded into states at once.
_EXPAND_ROWS = 4096

#: Columns below which the expansion scan multiplies out prefix products.
_SCAN_BASE = 64

#: Landau-Zener survival run: the half-window is LZ_WINDOW_SCALE over the
#: square root of the sweep rate, integrated to LZ_RTOL and LZ_ATOL.
LZ_WINDOW_SCALE = 40.0
LZ_RTOL = 1e-6
LZ_ATOL = 1e-9


@dataclass(eq=False)
class Trajectory:
    """Amplitudes on the requested output grid.

    In the rotating frame ``c_g``/``c_e`` are the frame amplitudes; their
    moduli (and hence ``norm``) agree with the lab amplitudes because the
    frame transformation is a pure phase per component. ``n_sub`` is the
    accepted number of substeps per output interval.

    ``attempts`` lists every pass :func:`evolve` ran, in order, as
    ``(n_sub, error / tol)``: the pass's last-point difference from the
    previous pass, rescaled to one halving of the substep, over the
    acceptance tolerance. The first pass has no predecessor and records
    ``None``; the last entry is the accepted pass. It is empty for a
    single :func:`propagate_fixed` pass.
    """

    grid: np.ndarray
    c_g: np.ndarray
    c_e: np.ndarray
    norm: np.ndarray
    frame: Frame
    n_sub: int
    attempts: tuple[tuple[int, Optional[float]], ...] = ()


def rhs(
    t: float,
    c: tuple[complex, complex],
    params: SystemParams,
    field: FieldModel,
    frame: Frame = "lab",
) -> tuple[complex, complex]:
    """Right-hand side of the amplitude equations at one instant.

    Lab frame (full field, coupling -Omega(t) cos(wt + phi)):
        dc_g/dt = -i(omega_g - i gamma_g/2) c_g - i Omega(t) cos(wt + phi) c_e
        dc_e/dt = -i(omega_e - i gamma_e/2) c_e - i Omega(t) cos(wt + phi) c_g
    Rotating frame (carrier transformation, rotating-wave approximation):
        db_g/dt = -(gamma_g/2) b_g + i (Omega/2) e^{+i phi} b_e
        db_e/dt = (-i delta - gamma_e/2) b_e + i (Omega/2) e^{-i phi} b_g

    The two frames differ by the sign convention of the counter-rotating
    decomposition (a pure b_e -> -b_e gauge), so populations and norms
    agree; amplitude signs do not. This scalar form is the same system the
    step matrices of :func:`propagate_fixed` integrate; it exists for direct
    inspection and as the reference the tests integrate with a scalar RK4
    loop.
    """
    _require_one_of("frame", frame, Frame)
    c_g, c_e = c
    omega = params.mu * float(field.envelope.omega(t))
    phi = float(field.phi(t))
    if frame == "lab":
        coupling = -omega * math.cos(field.carrier_omega * t + phi)
        d_g = -1j * (params.omega_g - 0.5j * params.gamma_g) * c_g + 1j * coupling * c_e
        d_e = -1j * (params.omega_e - 0.5j * params.gamma_e) * c_e + 1j * coupling * c_g
        return d_g, d_e
    delta = detuning(params, field)
    w = 0.5 * omega * complex(math.cos(phi), math.sin(phi))
    d_g = -0.5 * params.gamma_g * c_g + 1j * w * c_e
    d_e = (-1j * delta - 0.5 * params.gamma_e) * c_e + 1j * w.conjugate() * c_g
    return d_g, d_e


def _stage_coupling(
    params: SystemParams,
    field: FieldModel,
    t0: float,
    s: float,
    first: int,
    count: int,
    frame: Frame,
) -> tuple[np.ndarray, complex, complex]:
    """Coupling k on the stage lattice t_j = t0 + j s, j = first, ...,
    first + count - 1, plus the two diagonal constants.

    In the rotating frame k = (Omega/2) e^{i phi}, and the phase factor
    comes from :func:`_chirp_factor`, not from a complex exponential per
    lattice point.
    """
    times = t0 + s * np.arange(first, first + count)
    omega = params.mu * field.envelope.omega(times)
    if frame == "lab":
        k = -omega * np.cos(field.carrier_omega * times + field.phi(times))
        d1 = -1j * params.omega_g - 0.5 * params.gamma_g
        d2 = -1j * params.omega_e - 0.5 * params.gamma_e
    else:
        k = 0.5 * omega * _chirp_factor(field, t0, s, first, count)
        delta = detuning(params, field)
        d1 = complex(-0.5 * params.gamma_g)
        d2 = -1j * delta - 0.5 * params.gamma_e
    return k, complex(d1), complex(d2)


def _chirp_factor(field: FieldModel, t0: float, s: float, first: int, count: int):
    """e^{i phi(t_j)} on the stage lattice t_j = t0 + j s by angle addition.

    With x the time from the phase centre and j = first + _PHASE_RUN m + r,
    phi(x_m + r s) = phi(x_m) + r (beta x_m s) + r^2 (beta s^2 / 2) at the
    run heads x_m. One exponential per head gives e^{i phi(x_m)}, one more
    the rate z_m = e^{i beta x_m s}, whose powers z_m^r fill the run by
    doubling (the second half of the first 2b columns is the first half
    times z_m^b, and z_m^b is squared each round); a single table of
    e^{i r^2 beta s^2 / 2} is shared by every run. A constant phase
    (beta = 0) is the scalar e^{i phi0}.
    """
    phase = field.phase
    if phase.beta == 0.0:
        return cmath.exp(1j * phase.phi0)
    heads = (t0 - field.phase_center) + s * np.arange(first, first + count, _PHASE_RUN)
    factor = np.empty((len(heads), _PHASE_RUN), dtype=complex)
    factor[:, 0] = np.exp(1j * (phase.phi0 + 0.5 * phase.beta * heads * heads))
    z = np.exp(1j * (phase.beta * s) * heads)[:, None]
    b = 1
    while b < _PHASE_RUN:
        np.multiply(factor[:, :b], z, out=factor[:, b:2 * b])
        z = z * z
        b *= 2
    r = np.arange(_PHASE_RUN)
    factor *= np.exp(0.5j * phase.beta * s * s * (r * r))
    return factor.ravel()[:count]


# A stack of 2x2 matrices [[a, b], [c, d]] is one array of shape (2, 2, ...),
# one matrix per trailing index.
def _mul(p, q):
    """Elementwise matrix product p @ q: a e + b g, a f + b h, c e + d g,
    c f + d h in one broadcast product per column of p."""
    return p[:, :1] * q[:1] + p[:, 1:] * q[1:]


def _step_matrices(k0, kh, k1, d1: complex, d2: complex, h: float):
    """RK4 step matrices of y' = [[d1, i k], [i k*, d2]] y, with k sampled
    at t, t + h/2 and t + h.

    With A_0, A_h, A_1 the system matrix at the three samples, the RK4
    stages K1 = A_0, K2 = A_h (I + h/2 K1), K3 = A_h (I + h/2 K2),
    K4 = A_1 (I + h K3) give M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), a
    polynomial in the samples. Written out, its array terms are the linear
    samples and the products p = |k_h|^2, u = k_h k_0*, v = k_1 k_h* and
    w = k_1 k_0*:

        M11 = 1 + e(d1) + a1 (u + v) + b(d1) p + (c(d2) + q p) w
        M12 = k_0 (f(d1) + g(d1) p + g01 v) + f_h k_h + k_1 (f(d2) + g(d2) p)
        M21 = k_0* (f(d2) + g(d2) p + g01 v*) + f_h k_h* + k_1* (f(d1) + g(d1) p)
        M22 = 1 + e(d2) + a2 (u + v)* + b(d2) p + (c(d1) + q p) w*

    where, with z = d h, e(d) = z + z^2/2 + z^3/6 + z^4/24,
    b(d) = -h^2 (z + 2)^2 / 24, c(d) = -h^2 z^2 / 24, q = h^4 / 24,
    f(d) = i h (z^3 + 2 z^2 + 4 z + 4) / 24, g(d) = -i h^3 (z + 2) / 24,
    g01 = -i h^3 (z1 + z2) / 24, a1 and a2 are -h^2/24 times
    z1^2 + z1 z2 + 2 z1 + 2 z2 + 4 and z1 z2 + z2^2 + 2 z1 + 2 z2 + 4, and
    f_h = i h (z1^2 z2 + z1 z2^2 + 2 z1^2 + 4 z1 z2 + 2 z2^2 + 8 z1 + 8 z2
    + 16) / 24. The scalar coefficients are formed once per block. On the
    diagonal the O(h) terms are summed first and the identity is added
    last, so the rounding of the small terms is not taken at the scale of 1.
    """
    z1, z2 = d1 * h, d2 * h
    hh = h * h
    q = hh * hh / 24.0

    def e(z):
        return z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))

    def b(z):
        return -hh * (z + 2.0) ** 2 / 24.0

    def c(z):
        return -hh * z * z / 24.0

    def f(z):
        return 1j * h * (((z + 2.0) * z + 4.0) * z + 4.0) / 24.0

    def g(z):
        return -1j * h * hh * (z + 2.0) / 24.0

    a1 = -hh * (z1 * z1 + z1 * z2 + 2.0 * (z1 + z2) + 4.0) / 24.0
    a2 = -hh * (z1 * z2 + z2 * z2 + 2.0 * (z1 + z2) + 4.0) / 24.0
    f_h = 1j * h * (z1 * z2 * (z1 + z2) + 2.0 * (z1 * z1 + z2 * z2)
                    + 4.0 * z1 * z2 + 8.0 * (z1 + z2) + 16.0) / 24.0
    g01 = -1j * h * hh * (z1 + z2) / 24.0

    p = kh.real * kh.real + kh.imag * kh.imag
    c0, ch = k0.conj(), kh.conj()
    v = k1 * ch
    u_v = kh * c0 + v
    w = k1 * c0
    qp = q * p
    x = f(z1) + g(z1) * p
    y = f(z2) + g(z2) * p
    m = np.empty((2, 2) + k0.shape, dtype=complex)
    np.add(1.0, e(z1) + a1 * u_v + b(z1) * p + (c(z2) + qp) * w, out=m[0, 0])
    np.add(k0 * (x + g01 * v) + f_h * kh, k1 * y, out=m[0, 1])
    np.add(c0 * (y + g01 * v.conj()) + f_h * ch, k1.conj() * x, out=m[1, 0])
    np.add(1.0, e(z2) + a2 * u_v.conj() + b(z2) * p + (c(z1) + qp) * w.conj(), out=m[1, 1])
    return m


def _ordered_product(m):
    """Product M[..., w-1] ... M[..., 1] M[..., 0] along the last axis,
    pairwise.

    An odd last column is folded into the last pair instead of being
    carried to the next round.
    """
    while m.shape[-1] > 1:
        w = m.shape[-1]
        even = w - w % 2
        pairs = _mul(m[..., 1:even:2], m[..., 0:even:2])
        if w % 2:
            pairs[..., -1] = _mul(m[..., -1], pairs[..., -1])
        m = pairs
    return m[..., 0]


def _power(m, count: int):
    """M**count for one 2x2 matrix of shape (2, 2) and count >= 1, by
    repeated squaring: about log2(count) products. With :func:`_mul`'s
    products; ``np.linalg.matrix_power`` rounds differently and missed the
    expanded last state by 2e-13 at 4095 rows."""
    result = None
    while True:
        if count & 1:
            result = m if result is None else _mul(m, result)
        count >>= 1
        if not count:
            return result
        m = _mul(m, m)


def _prefix_products(m):
    """Inclusive prefix products P[i] = M[i] ... M[0] along the last axis
    (Hillis-Steele scan), for the short stacks at the base of :func:`_scan`."""
    shift = 1
    while shift < m.shape[-1]:
        m = np.concatenate((m[..., :shift], _mul(m[..., shift:], m[..., :-shift])), axis=-1)
        shift *= 2
    return m


def _apply(m, y):
    """m @ y per column, for a stack m of shape (2, 2, ...) and states y of
    shape (2, ...)."""
    return m[:, 0] * y[0] + m[:, 1] * y[1]


def _scan(m, y):
    """States M[j] ... M[0] y for every column j of m, as shape (2, w).

    Work-efficient scan applied to the state (Blelloch, "Prefix sums and
    their applications", CMU-CS-90-190, 1990): the products of column pairs
    halve the stack, the states after the odd columns come from the half by
    recursion, and each even column takes one more matrix-vector step from
    the odd state before it. Below ``_SCAN_BASE`` columns the prefix
    products are multiplied out directly.
    """
    w = m.shape[-1]
    if w <= _SCAN_BASE:
        return _apply(_prefix_products(m), y)
    even = w - w % 2
    odd = _scan(_mul(m[..., 1:even:2], m[..., 0:even:2]), y)
    out = np.empty((2, w), dtype=complex)
    out[:, 1::2] = odd
    out[:, 0] = _apply(m[..., 0], y)
    out[:, 2::2] = _apply(m[..., 2::2], odd[:, :(w - 1) // 2])
    return out


def _start(init: InitialState) -> np.ndarray:
    """The initial state vector (c_g, c_e)."""
    _require_one_of("init", init, InitialState)
    return np.array([1.0, 0.0] if init == "ground" else [0.0, 1.0], dtype=complex)


def _intervals(params, field, grid, h_out: float, frame: Frame, n_sub: int):
    """Interval propagators of one pass with ``n_sub`` substeps per output
    interval, as a stack of shape (2, 2, len(grid) - 1).

    Each block holds up to ``_BLOCK_SUBSTEPS`` substeps: whole output
    intervals when ``n_sub`` fits, otherwise consecutive slices of one
    interval whose products are chained. A time-independent coupling gives
    every substep the same step matrix, so one row of them, built for the
    first interval, serves every interval and the stack is a broadcast view.
    """
    rows = len(grid) - 1
    h_sub = h_out / n_sub
    per_block = max(1, _BLOCK_SUBSTEPS // n_sub)
    width = min(n_sub, _BLOCK_SUBSTEPS)
    constant = (frame == "rotating" and field.envelope.kind == "constant"
                and field.phase.beta == 0.0)
    out = None if constant else np.empty((2, 2, rows), dtype=complex)
    for first in range(0, 1 if constant else rows, per_block):
        built = 1 if constant else min(per_block, rows - first)
        for offset in range(0, n_sub, width):
            w = min(width, n_sub - offset)
            j0 = first * n_sub + offset  # first substep of this slice
            k, d1, d2 = _stage_coupling(params, field, grid[0], 0.5 * h_sub,
                                        2 * j0, 2 * built * w + 1, frame)
            steps = _step_matrices(
                k[:-1:2].reshape(built, w), k[1::2].reshape(built, w),
                k[2::2].reshape(built, w), d1, d2, h_sub,
            )
            part = _ordered_product(steps)
            interval = part if offset == 0 else _mul(part, interval)
        if constant:
            return np.broadcast_to(interval, (2, 2, rows))
        out[..., first:first + built] = interval
    return out


def _expand(intervals, y) -> np.ndarray:
    """States on the output grid, y, M[0] y, M[1] M[0] y, ..., as shape
    (2, rows + 1), by :func:`_scan` in chunks of ``_EXPAND_ROWS`` rows that
    carry the state."""
    rows = intervals.shape[-1]
    out = np.empty((2, rows + 1), dtype=complex)
    out[:, 0] = y
    for first in range(0, rows, _EXPAND_ROWS):
        chunk = intervals[..., first:first + _EXPAND_ROWS]
        out[:, first + 1:first + 1 + chunk.shape[-1]] = _scan(chunk, out[:, first])
    return out


def _trajectory(grid, states, frame: Frame, n_sub: int, attempts=()) -> Trajectory:
    c_g, c_e = states
    norm = np.abs(c_g) ** 2 + np.abs(c_e) ** 2
    return Trajectory(grid=grid, c_g=c_g, c_e=c_e, norm=norm, frame=frame,
                      n_sub=n_sub, attempts=tuple(attempts))


@dataclass(eq=False)
class _Pass:
    """A built pass: its interval propagators and its last state, from their
    pairwise product applied to the initial state."""

    intervals: np.ndarray
    last: np.ndarray


def _build_pass(params, field, grid, h_out: float, start, frame: Frame, n_sub: int) -> _Pass:
    """The pass :func:`evolve` runs with ``n_sub`` substeps on a grid it has
    validated."""
    intervals = _intervals(params, field, grid, h_out, frame, n_sub)
    if intervals.strides[-1] == 0:  # one interval propagator for every row
        total = _power(intervals[..., 0], intervals.shape[-1])
    else:
        total = _ordered_product(intervals)
    return _Pass(intervals, _apply(total, start))


def propagate_fixed(
    params: SystemParams,
    field: FieldModel,
    grid: np.ndarray,
    init: InitialState = "ground",
    frame: Frame = "rotating",
    n_sub: int = 1,
) -> Trajectory:
    """One RK4 pass with exactly ``n_sub`` substeps per output interval:
    the interval propagators (:func:`_intervals`) expanded into the states
    on the grid (:func:`_expand`)."""
    _require_one_of("frame", frame, Frame)
    start = _start(init)
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    grid, h_out = uniform_grid(grid)
    intervals = _intervals(params, field, grid, h_out, frame, n_sub)
    return _trajectory(grid, _expand(intervals, start), frame, n_sub)


def _characteristic_rate(
    params: SystemParams, field: FieldModel, grid: np.ndarray, frame: Frame
) -> float:
    """Fastest angular rate the substep must resolve, estimated on the grid."""
    omega_max = float(np.max(params.mu * field.envelope.omega(grid)))
    dphi_max = float(np.max(np.abs(field.dphi(grid))))
    delta = abs(detuning(params, field))
    rates = [omega_max, dphi_max, delta, params.gamma_g, params.gamma_e]
    if frame == "lab":
        rates += [abs(params.omega_g), abs(params.omega_e),
                  abs(field.carrier_omega) + dphi_max]
    return max(rates + [1e-3])


def _fourth_order(first: float, second: float, q: int) -> bool:
    """Whether the pair differences d(n0, 2 n0) = ``first`` and
    d(2 n0, 2 q n0) = ``second`` fall as RK4's n^-4 error predicts,
    first / second = 15 / (1 - q^-4), within a factor of 2."""
    expected = 15.0 / (1.0 - float(q) ** -4)
    return 0.5 * expected * second <= first <= 2.0 * expected * second


def evolve(
    params: SystemParams,
    field: FieldModel,
    grid: np.ndarray,
    init: InitialState = "ground",
    frame: Frame = "rotating",
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """Integrate the amplitude equations on ``grid`` to the given tolerance.

    The substep count per output interval starts at ``n0`` from a rate
    heuristic. A pass with ``n`` substeps is accepted when its last-point
    amplitudes differ from the pass with ``n / 2`` by less than
    ``rtol * max(1, |c|) + atol``; the finer result is returned.

    Rather than doubling through every coarse pass, the controller predicts
    the accepted count from the first pair (``n0``, ``2 n0``): RK4's
    difference falls 16x per doubling, so with ``r`` = difference / tol it
    jumps to ``N = 2 n0 2^j``, ``j = ceil(log2(r) / 4)``. The jumped pass
    is accepted when its difference from ``2 n0``, rescaled to one halving
    by ``15 / (q^4 - 1)`` with ``q = N / (2 n0)``, is below tol and the
    three passes show fourth-order convergence; otherwise plain doubling
    continues from ``N``. ``N`` stays a power-of-two multiple of ``n0``,
    so a right prediction accepts the same pass doubling would. A
    non-finite pair difference takes the doubling path. The returned
    ``attempts`` records every pass.

    Raises
    ------
    ToleranceUnreachable
        If a halving of the substep, from one pass to the next, does not
        shrink the difference of the last point: rounding error has
        overtaken truncation error above the tolerance.
    StepUnderflow
        If the controller drives the substep below 1e-12 of the span.
    """
    _require_one_of("frame", frame, Frame)
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("rtol and atol must be positive and finite")
    grid, h_out = uniform_grid(grid)
    start = _start(init)
    span = float(grid[-1] - grid[0])
    rate = _characteristic_rate(params, field, grid, frame)

    def underflows(n_sub: int) -> bool:
        return h_out / n_sub < STEP_UNDERFLOW_FRACTION * span

    def run(n_sub: int) -> _Pass:
        if underflows(n_sub):
            raise StepUnderflow(
                f"substep {h_out / n_sub:.3e} below "
                f"{STEP_UNDERFLOW_FRACTION:.0e} of span {span:.3e}"
            )
        return _build_pass(params, field, grid, h_out, start, frame, n_sub)

    n_prev = max(1, math.ceil(h_out * rate / _INITIAL_RADIANS_PER_STEP))
    prev = run(n_prev).last
    attempts: list[tuple[int, Optional[float]]] = [(n_prev, None)]
    n_sub = 2 * n_prev
    first = None  # difference of the first pair
    halving = None  # difference of the previous pair, if it was one halving apart
    while True:
        cur = run(n_sub)
        last = cur.last
        q = n_sub // n_prev
        # np.maximum, not max: a NaN in either component must propagate.
        diff = np.maximum(abs(last[0] - prev[0]), abs(last[1] - prev[1]))
        tol = rtol * max(1.0, abs(last[0]), abs(last[1])) + atol
        # Difference of one halving at n_sub; the factor is exactly 1 for q = 2.
        estimate = diff * (15.0 / (q**4 - 1))
        attempts.append((n_sub, float(estimate / tol)))
        if estimate < tol and (q == 2 or _fourth_order(first, diff, q)):
            return _trajectory(grid, _expand(cur.intervals, start), frame, n_sub, attempts)
        # A NaN difference compares false and keeps doubling.
        if q == 2 and halving is not None and diff >= halving:
            raise ToleranceUnreachable(
                f"difference {float(diff):.3e} at n_sub {n_sub} did not shrink from "
                f"{float(halving):.3e} at n_sub {n_prev}; rounding error is above "
                f"the tolerance {tol:.3e}"
            )
        halving = diff if q == 2 else None
        n_next = 2 * n_sub
        if first is None:
            first = diff
            r = diff / tol
            if math.isfinite(r):
                # At most 2^5 per jump: beyond that the n^-4 extrapolation
                # spans more than six decades of error.
                j = min(5, max(1, math.ceil(math.log2(r) / 4)))
                n_next = n_sub << j
                # Land on the last count doubling could run, so that
                # StepUnderflow is raised where doubling raises it.
                while n_next > 2 * n_sub and underflows(n_next):
                    n_next //= 2
        # Only the last state of a rejected pass is kept: its intervals are
        # released before the next pass is built.
        del cur
        prev, n_prev, n_sub = last, n_sub, n_next


def rabi_oracle(omega0: float, t: float) -> tuple[float, float]:
    """Closed-form resonant undamped populations: p_e = sin^2(omega0 t / 2)."""
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    p_e = math.sin(0.5 * omega0 * t) ** 2
    return 1.0 - p_e, p_e


def lz_oracle(coupling: float, sweep_rate: float) -> float:
    """Diabatic survival probability exp(-2 pi V^2 / |alpha|) for a linear
    sweep of the level gap at rate alpha and off-diagonal coupling V."""
    if sweep_rate == 0:
        raise ValueError("sweep_rate must be nonzero")
    return math.exp(-2.0 * math.pi * coupling * coupling / abs(sweep_rate))


def rz_oracle(omega0: float, tau: float, delta: float) -> float:
    """Rosen-Zener excitation probability after an undamped, unchirped sech
    pulse omega0 sech(t / tau) at detuning delta, starting in the ground
    state: sin^2(pi omega0 tau / 2) sech^2(pi delta tau / 2) (Rosen and
    Zener, Phys. Rev. 40:502, 1932)."""
    if omega0 <= 0 or tau <= 0:
        raise ValueError("omega0 and tau must be positive")
    area = math.pi * omega0 * tau
    return (math.sin(0.5 * area) / math.cosh(0.5 * math.pi * delta * tau)) ** 2


class _FlatTopEnvelope:
    """Constant coupling with smoothstep ramps to zero at the window edges.

    Module-private: a vanishing envelope has no logarithmic derivative, so
    this shape cannot feed the dressed-state pipeline and is not part of
    the scenario schema. It exists solely to switch the sweep coupling on
    and off adiabatically, which removes the diabatic-basis interference
    beat a hard window edge would imprint on the survival reading.
    """

    kind = "flat-top"
    t_center = 0.0
    #: Share of each window half taken by the ramp.
    RAMP_FRACTION = 0.25

    def __init__(self, omega0: float, window: float):
        self.omega0 = omega0
        self.window = window
        self.ramp = self.RAMP_FRACTION * window

    def omega(self, t):
        x = (self.window - np.abs(np.asarray(t, dtype=float))) / self.ramp
        x = np.clip(x, 0.0, 1.0)
        # Quintic smoothstep: C2 at both ends.
        return self.omega0 * x**3 * (10.0 - 15.0 * x + 6.0 * x * x)


def lz_survival(coupling: float, sweep_rate: float) -> float:
    """Asymptotic diabatic survival probability from a finite-window sweep.

    A resonant carrier with a linear chirp at rate ``-sweep_rate`` realizes
    the linear-sweep crossing; the run covers [-window, window] with window
    ``LZ_WINDOW_SCALE / sqrt(|sweep_rate|)``, integrated to ``LZ_RTOL`` and
    ``LZ_ATOL``. With the coupling held abruptly at its full value the
    finite-window reading carries an interference transient with a
    1 / window envelope, far above the accuracy of the integration itself,
    so the coupling is instead ramped smoothly to zero over the outer
    quarter of each window half. The crossing region still sees the
    constant coupling, the edges carry no beat (the bases coincide where
    the coupling vanishes), and the endpoint ground population converges
    to the asymptotic survival.
    """
    if sweep_rate == 0:
        raise ValueError("sweep_rate must be nonzero")
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    sweep_rate = abs(sweep_rate)
    window = LZ_WINDOW_SCALE / math.sqrt(sweep_rate)
    params = SystemParams(omega_g=0.0, omega_e=1.0)
    field = FieldModel(
        carrier_omega=1.0,
        envelope=_FlatTopEnvelope(2.0 * coupling, window),
        phase=Chirp(beta=-sweep_rate, t_center=0.0),
    )
    grid = np.linspace(-window, window, 401)
    traj = evolve(params, field, grid, init="ground", frame="rotating",
                  rtol=LZ_RTOL, atol=LZ_ATOL)
    return float(abs(traj.c_g[-1]) ** 2)
