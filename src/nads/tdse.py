"""Time-dependent Schrodinger integration for the damped driven two-level
system, used as an independent numerical oracle.

The equations are integrated in the frame rotating at the carrier
frequency, under the rotating-wave approximation: the frame the
dressed-state formulas live in, so the integrator checks the closed form
where it computes. Propagation is classic fourth-order Runge-Kutta with a
fixed substep per run. The accepted substep is the first power-of-two
refinement at which halving it changes the final amplitudes by less than
the tolerance. Since RK4's difference falls 16x per halving, the controller
predicts that count from the first pair of passes and jumps straight to it
(step-size prediction from an a-posteriori error estimate; Hairer, Norsett
and Wanner, "Solving Ordinary Differential Equations I", section II.4). It
keeps the jumped pass only if the three passes show fourth-order
convergence, and falls back to plain doubling otherwise.

The equations are y' = [[d1, i k], [i k*, d2]] y for y = (c_g, c_e), with
d1 = -gamma_g/2, d2 = -i delta - gamma_e/2 and k = (mu/2) Omega(t) e^{i phi(t)}.
They are linear, so one RK4 substep is a 2x2 step matrix: a polynomial in
the coupling at the substep's start, middle and end, whose scalar
coefficients depend only on the diagonal rates and the substep (see
:func:`_step_matrices`). Its diagonal sums the small terms first and adds
the identity last. The chirp's phase factor on the uniform stage lattice
comes by angle addition from one exponential per 64 lattice points (see
:func:`_chirp_factor`). A stack of step matrices is one complex array of
shape (2, 2, ...), so multiplying two stacks takes two broadcast products
and a sum.

A pass has two steps. The build (:func:`_build_pass`) makes the step
matrices elementwise in NumPy, in blocks of at most ``_BLOCK_SUBSTEPS``
substeps, and multiplies them together per output interval in pairs (an
odd last one folded into the last pair). It keeps one interval propagator
per output interval, 64 bytes per grid point whatever ``n_sub`` is. The
expansion (:func:`_expand`) turns the intervals into the states on the
output grid by a work-efficient scan applied to the state (Blelloch,
"Prefix sums and their applications", CMU-CS-90-190, 1990; see
:func:`_scan`): pair products halve the stack, round after round down to
one column, and the states come back up one matrix-vector step each. It
runs in chunks of at most ``_EXPAND_ROWS`` rows that carry the state.
The controller builds every pass, takes its last states, the scan's last
column from its pair products alone (:func:`_expand_last`), compares
them, and expands only the pass it accepts; it holds the intervals of
the current pass only. A pass builds ``n_sub`` substeps for each row it
builds (:func:`_built_rows`), every output interval in general. A
constant envelope without chirp makes the coupling time-independent;
every substep then has the same step matrix, so a pass builds one row,
its interval product serves every interval as a broadcast stack, and each
round of pair products, down to the last, takes one product for it
(:func:`_pairs`).

Independent runs on one grid go through the controller as a batch
(:func:`final_states`; :func:`evolve` is a batch of one). Each run has its
own controller; the pending runs that ask for the same ``n_sub`` and
build the same rows share a pass, whose arrays carry a batch axis after
the matrix axes, (2, 2, B, ...), and which is built for chunks of runs
bounded by ``_CHUNK_SUBSTEPS`` and ``_CHUNK_INTERVALS``. The runs of a pass
share their coupling samples per distinct (envelope, phase) pair,
compared by value, and each run scales them by its own amplitude, mu / 2
(see :func:`_stage_coupling`). Every run keeps the block partition it has
alone, and every operation is elementwise along the batch axis, so each
run gets the bits it gets alone. :func:`final_states` returns the last
states only: the ones its controller compared, with no scan after
acceptance.

The controller stops with :class:`~nads.errors.ToleranceUnreachable` when
a halving of the substep no longer shrinks the difference between passes:
rounding, not truncation, then sets that difference, and doubling on could
only run toward the pass limit. The controller refuses to ask for a pass
of more than ``MAX_PASS_SUBSTEPS`` substeps: the run fails with
:class:`~nads.errors.StepUnderflow` before that pass is built, and a
predicted jump lands on the last count doubling could run under the
limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (NonFiniteValue, NumericalError, StepUnderflow, ToleranceUnreachable,
                     ValidationError)
from .field_model import (DEFAULT_ATOL, DEFAULT_INIT, DEFAULT_RTOL, Chirp, FieldModel,
                          InitialState, SystemParams, _require_choice, _require_finite,
                          _require_positive)
from .nads_core import detuning, uniform_grid

__all__ = [
    "Trajectory",
    "evolve",
    "rabi_oracle",
    "lz_oracle",
]

#: Initial substep target: fastest angular rate times substep, in radians.
_INITIAL_RADIANS_PER_STEP = 0.2

#: Substeps one pass may build for a run: ``n_sub`` times the rows of step
#: matrices it builds (see :func:`_built_rows`). At about 1e7 substeps a
#: second, a pass at the limit takes seconds, and the controller's next one
#: would take twice as long.
MAX_PASS_SUBSTEPS = 2**26

#: Substeps whose step matrices are held in memory at once: a block of one
#: run, or the blocks of the runs whose step matrices are built together.
_BLOCK_SUBSTEPS = 4096

#: Substeps of one block whose coupling samples are held at once across
#: the runs of a batch.
_CHUNK_SUBSTEPS = 16384

#: Interval propagators held at once across the runs of a batch.
_CHUNK_INTERVALS = 65536

#: Stage-lattice points per exponential of the chirp phase factor.
_PHASE_RUN = 64

#: Rows of interval propagators expanded into states at once.
_EXPAND_ROWS = 4096

#: Landau-Zener survival run: the half-window is LZ_WINDOW_SCALE over the
#: square root of the sweep rate, integrated to LZ_RTOL and LZ_ATOL.
LZ_WINDOW_SCALE = 40.0
LZ_RTOL = 1e-6
LZ_ATOL = 1e-9


@dataclass(eq=False)
class Trajectory:
    """Amplitudes on the requested output grid.

    ``c_g``/``c_e`` are the rotating-frame amplitudes; their moduli (and
    hence ``norm``) are the bare ones, because the frame transformation is
    a pure phase per component. ``n_sub`` is the accepted number of
    substeps per output interval.

    ``attempts`` lists every pass :func:`evolve` ran, in order, as
    ``(n_sub, error / tol)``: the pass's last-point difference from the
    previous pass, rescaled to one halving of the substep, over the
    acceptance tolerance. The first pass has no predecessor and records
    ``None``; the last entry is the accepted pass.
    """

    grid: np.ndarray
    c_g: np.ndarray
    c_e: np.ndarray
    norm: np.ndarray
    n_sub: int
    attempts: tuple[tuple[int, Optional[float]], ...]


def _diagonal(params: SystemParams, field: FieldModel) -> tuple[complex, complex]:
    """The two diagonal rates d1, d2 of y' = [[d1, i k], [i k*, d2]] y."""
    return (complex(-0.5 * params.gamma_g),
            complex(-1j * detuning(params, field) - 0.5 * params.gamma_e))


def _same_coupling(runs) -> list[tuple[int, int]]:
    """For each run, the first run with the same envelope and the first run
    with the same chirp phase, compared by value (the points of a sweep
    rebuild their sections); repr keeps -0.0 apart from 0.0, which compare
    equal."""
    envelopes: dict[str, int] = {}
    phases: dict[str, int] = {}
    return [(envelopes.setdefault(repr(field.envelope), j),
             phases.setdefault(repr((field.phase, field.phase_center)), j))
            for j, (_, field) in enumerate(runs)]


def _stage_coupling(runs, t0: float, s: float, first: int, count: int, same) -> np.ndarray:
    """Coupling k = (mu / 2) Omega e^{i phi} of each run on the stage
    lattice t_j = t0 + j s, j = first, ..., first + count - 1, as shape
    (B, count).

    Runs share their samples by value (``same``, from
    :func:`_same_coupling`): each distinct envelope is evaluated once, each
    distinct phase factor comes once from :func:`_chirp_factor`, not from a
    complex exponential per lattice point, and each distinct pair of them
    is multiplied once. A run then scales its pair's product by its own
    mu / 2.
    """
    times = t0 + s * np.arange(first, first + count)
    k = np.empty((len(runs), count), dtype=complex)
    samples, factors, products = {}, {}, {}
    for j, ((params, field), pair) in enumerate(zip(runs, same)):
        envelope, phase = pair
        if pair not in products:
            if envelope not in samples:
                samples[envelope] = field.envelope.omega(times)
            if phase not in factors:
                factors[phase] = _chirp_factor(field, t0, s, first, count)
            products[pair] = samples[envelope] * factors[phase]
        # A real scale of both components, not a complex product.
        np.multiply(products[pair].view(float), 0.5 * params.mu, out=k[j].view(float))
    return k


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


def _step_matrices(k0, kh, k1, table, q, m):
    """RK4 step matrices of y' = [[d1, i k], [i k*, d2]] y for k sampled
    at t, t + h/2 and t + h, each of shape (B, ...) for B runs, with the
    scalar coefficients ``table`` of each run and ``q`` from
    :func:`_step_coefficients`, written into ``m`` of shape (2, 2, B, ...).

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
    + 16) / 24. On the diagonal the O(h) terms are summed first and the
    identity is added last, so the rounding of the small terms is not taken
    at the scale of 1.
    """
    e1, e2, a1, a2, b1, b2, c1, c2, f1, f2, g1, g2, f_h, g01 = table
    p = kh.real * kh.real + kh.imag * kh.imag
    c0, ch = k0.conj(), kh.conj()
    v = k1 * ch
    u_v = kh * c0 + v
    w = k1 * c0
    qp = q * p
    x = f1 + g1 * p
    y = f2 + g2 * p
    np.add(1.0, e1 + a1 * u_v + b1 * p + (c2 + qp) * w, out=m[0, 0])
    np.add(k0 * (x + g01 * v) + f_h * kh, k1 * y, out=m[0, 1])
    np.add(c0 * (y + g01 * v.conj()) + f_h * ch, k1.conj() * x, out=m[1, 0])
    np.add(1.0, e2 + a2 * u_v.conj() + b2 * p + (c1 + qp) * w.conj(), out=m[1, 1])


def _step_coefficients(diagonals, h: float):
    """The scalar coefficients of :func:`_step_matrices` for substep ``h``,
    from the diagonal rates (d1, d2) of each run, each formed in Python's
    complex arithmetic: a table of shape (14, B, 1, 1), one row per
    complex coefficient, and the real q."""
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

    table = []
    for d1, d2 in diagonals:
        z1, z2 = d1 * h, d2 * h
        a1 = -hh * (z1 * z1 + z1 * z2 + 2.0 * (z1 + z2) + 4.0) / 24.0
        a2 = -hh * (z1 * z2 + z2 * z2 + 2.0 * (z1 + z2) + 4.0) / 24.0
        f_h = 1j * h * (z1 * z2 * (z1 + z2) + 2.0 * (z1 * z1 + z2 * z2)
                        + 4.0 * z1 * z2 + 8.0 * (z1 + z2) + 16.0) / 24.0
        g01 = -1j * h * hh * (z1 + z2) / 24.0
        table.append((e(z1), e(z2), a1, a2, b(z1), b(z2), c(z1), c(z2),
                      f(z1), f(z2), g(z1), g(z2), f_h, g01))
    return np.array(table, dtype=complex).T.reshape(14, len(table), 1, 1), q


def _pairs(m):
    """Products M[2i+1] M[2i] of the column pairs along the last axis; an
    odd last column is left out. A stack with stride 0 along its columns is
    one matrix broadcast to every column: its one product is taken once and
    broadcast to every pair."""
    if m.strides[-1] == 0:
        return np.broadcast_to(_mul(m[..., 1:2], m[..., :1]), m[..., 1::2].shape)
    return _mul(m[..., 1::2], m[..., :-1:2])


def _ordered_product(m):
    """Product M[..., w-1] ... M[..., 1] M[..., 0] along the last axis of a
    built (not broadcast) stack, pairwise.

    An odd last column is folded into the last pair instead of being
    carried to the next round.
    """
    while m.shape[-1] > 1:
        pairs = _pairs(m)
        if m.shape[-1] % 2:
            pairs[..., -1] = _mul(m[..., -1], pairs[..., -1])
        m = pairs
    return m[..., 0]


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
    the odd state before it. The recursion runs down to one column, whose
    state is one matrix-vector step from y. The pair products come from
    :func:`_pairs`, so a broadcast stack takes one product per round.
    """
    w = m.shape[-1]
    out = np.empty((2, w), dtype=complex)
    out[:, 0] = _apply(m[..., 0], y)
    if w > 1:
        odd = _scan(_pairs(m), y)
        out[:, 1::2] = odd
        out[:, 2::2] = _apply(m[..., 2::2], odd[:, :(w - 1) // 2])
    return out


def _start(init: InitialState) -> np.ndarray:
    """The initial state vector (c_g, c_e)."""
    _require_choice("init", init, InitialState)
    return np.array([1.0, 0.0] if init == "ground" else [0.0, 1.0], dtype=complex)


def _built_rows(field: FieldModel, rows: int) -> int:
    """Rows of step matrices a pass of the run builds: one when every
    substep has the same step matrix, as under a constant envelope without
    chirp, otherwise one per output interval."""
    if field.envelope.kind == "constant" and field.phase.beta == 0.0:
        return 1
    return rows


def _build_pass(runs, grid, n_sub: int):
    """Interval propagators of one pass of each of B runs with ``n_sub``
    substeps per output interval, on a grid the controller has validated,
    as a stack of shape (2, 2, B, len(grid) - 1). The output step is the
    grid's first, ``grid[1] - grid[0]``, the double :func:`uniform_grid`
    returns for it.

    The pass builds the rows of step matrices its runs need
    (:func:`_built_rows`), the most any of them needs. With one built row,
    each substep of a run has the same step matrix, so the interval
    propagator of the first interval serves every interval and the stack
    is a broadcast view.

    Each block holds up to ``_BLOCK_SUBSTEPS`` substeps of each run: whole
    output intervals when ``n_sub`` fits, otherwise consecutive slices of
    one interval whose products are chained. Every run keeps the block
    partition, and with it the chirp factor's run heads, it has alone. A
    block's coupling samples and interval products are taken for all runs
    at once; its step matrices for as many runs as fit in
    ``_BLOCK_SUBSTEPS`` substeps. That bound keeps their arrays below the
    256 KiB at which NumPy's operators reuse a right-hand temporary in
    place, which swaps the operands of a complex product and so rounds it
    differently from the run alone.
    """
    rows = len(grid) - 1
    built_rows = max(_built_rows(field, rows) for _, field in runs)
    h_sub = float(grid[1] - grid[0]) / n_sub
    per_block = max(1, _BLOCK_SUBSTEPS // n_sub)
    width = min(n_sub, _BLOCK_SUBSTEPS)
    same = _same_coupling(runs)
    table, q = _step_coefficients([_diagonal(*run) for run in runs], h_sub)
    out = np.empty((2, 2, len(runs), built_rows), dtype=complex)
    for first in range(0, built_rows, per_block):
        built = min(per_block, built_rows - first)
        size = max(1, _BLOCK_SUBSTEPS // (built * width))  # runs built together
        for offset in range(0, n_sub, width):
            w = min(width, n_sub - offset)
            j0 = first * n_sub + offset  # first substep of this slice
            k = _stage_coupling(runs, grid[0], 0.5 * h_sub, 2 * j0, 2 * built * w + 1, same)
            shape = (len(runs), built, w)
            k0, kh, k1 = (k[:, :-1:2].reshape(shape), k[:, 1::2].reshape(shape),
                          k[:, 2::2].reshape(shape))
            steps = np.empty((2, 2) + shape, dtype=complex)
            for sub in (slice(r, r + size) for r in range(0, len(runs), size)):
                _step_matrices(k0[sub], kh[sub], k1[sub], table[:, sub], q, steps[:, :, sub])
            part = _ordered_product(steps)
            interval = part if offset == 0 else _mul(part, interval)
        out[..., first:first + built] = interval
    return np.broadcast_to(out, out.shape[:-1] + (rows,))


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


def _scan_last(m, y):
    """The last column of :func:`_scan`, by the same operations, without
    the states of the other columns: the pair products of every round and
    one matrix-vector step per round with an odd column count. m may carry
    a batch axis before its columns."""
    w = m.shape[-1]
    if w == 1:
        return _apply(m[..., 0], y)
    odd = _scan_last(_pairs(m), y)
    return _apply(m[..., -1], odd) if w % 2 else odd


def _expand_last(intervals, y) -> np.ndarray:
    """The last column of :func:`_expand` for each run of a stack of shape
    (2, 2, B, rows), as shape (2, B): bitwise the last state of each run's
    expansion, at the cost of its pair products only."""
    for first in range(0, intervals.shape[-1], _EXPAND_ROWS):
        y = _scan_last(intervals[..., first:first + _EXPAND_ROWS], y)
    return y


def _trajectory(grid, states, n_sub: int, attempts) -> Trajectory:
    c_g, c_e = states
    norm = np.abs(c_g) ** 2 + np.abs(c_e) ** 2
    return Trajectory(grid=grid, c_g=c_g, c_e=c_e, norm=norm, n_sub=n_sub,
                      attempts=tuple(attempts))


def _characteristic_rate(params: SystemParams, field: FieldModel, grid: np.ndarray) -> float:
    """Fastest angular rate the substep must resolve, estimated on the grid.

    The Rabi frequency, detuning and damping rates count at their full
    value. The chirp rate |phi'| counts at each grid point weighted by
    (Omega / max Omega)^(1/4): the chirp enters the equations only through
    the coupling, so every RK4 error term that carries it also carries k,
    the leading one as h^5 |k| phi'^4 (Hairer, Norsett and Wanner, "Solving
    Ordinary Differential Equations I", section II.4). The weighted rate is
    the one whose coupling error matches that of the full rate at peak
    coupling; 1/4 is one over RK4's order. Where the coupling is switched
    off, as at the edges of a ramped window, the chirp then buys no
    substeps. An envelope that is 0 on the whole grid leaves the chirp rate
    unweighted.

    Raises
    ------
    NonFiniteValue
        If a rate overflows, as the chirp rate of a huge ``beta`` does. The
        rates are checked before the weighting, which could turn an
        overflow in an underflowed wing into NaN.
    """
    omega = params.mu * field.envelope.omega(grid)
    dphi = np.abs(field.dphi(grid))
    omega_max = float(np.max(omega))
    dphi_max = float(np.max(dphi))
    rates = [omega_max, dphi_max, abs(detuning(params, field)), params.gamma_g, params.gamma_e]
    if not all(map(math.isfinite, rates)):
        names = ("Rabi frequency", "chirp rate |dphi/dt|", "detuning", "gamma_g", "gamma_e")
        name, rate = next((n, r) for n, r in zip(names, rates) if not math.isfinite(r))
        raise NonFiniteValue(f"{name} on the grid is not finite: {rate}")
    if omega_max > 0.0:
        rates[1] = float(np.max(dphi * (omega / omega_max) ** 0.25))
    return max(rates + [1e-3])


def _fourth_order(first: float, second: float, q: int) -> bool:
    """Whether the pair differences d(n0, 2 n0) = ``first`` and
    d(2 n0, 2 q n0) = ``second`` fall as RK4's n^-4 error predicts,
    first / second = 15 / (1 - q^-4), within a factor of 2."""
    expected = 15.0 / (1.0 - float(q) ** -4)
    return 0.5 * expected * second <= first <= 2.0 * expected * second


class _Controller:
    """The substep controller of one run (see :func:`evolve`): ``n_sub`` is
    the count of the pass it asks for next, ``attempts`` the passes so far.

    It starts at ``count`` (rounded up) substeps per output interval, for
    a run whose passes build ``built_rows`` rows of step matrices
    (:func:`_built_rows`), and raises StepUnderflow as soon as the pass it
    would ask for next builds more than ``MAX_PASS_SUBSTEPS`` substeps; a
    count that overflows is such a pass.
    """

    def __init__(self, count: float, built_rows: int):
        self.built_rows = built_rows
        self.attempts: list[tuple[int, Optional[float]]] = []
        self.prev = None  # last state of the previous pass
        self.n_prev = 0
        self.first = None  # difference of the first pair
        self.halving = None  # difference of the previous pair, if it was one halving apart
        self._ask(max(1, math.ceil(count)) if math.isfinite(count) else math.inf)

    def _ask(self, n_sub) -> None:
        substeps = n_sub * self.built_rows
        if substeps > MAX_PASS_SUBSTEPS:
            raise StepUnderflow(
                f"a pass at {n_sub} substeps per output interval would build {substeps} "
                f"substeps, beyond the limit of {MAX_PASS_SUBSTEPS} per pass"
            )
        self.n_sub = n_sub

    def accepts(self, last, rtol: float, atol: float) -> bool:
        """Take the last state of the pass at ``n_sub``. True when that pass
        is accepted; otherwise ``n_sub`` moves to the next pass.

        Raises
        ------
        ToleranceUnreachable
            If this halving of the substep did not shrink the difference.
        StepUnderflow
            If the next pass would build more than ``MAX_PASS_SUBSTEPS``
            substeps.
        """
        n_sub, prev, n_prev = self.n_sub, self.prev, self.n_prev
        self.prev, self.n_prev = last, n_sub
        if prev is None:
            self.attempts.append((n_sub, None))
            self._ask(2 * n_sub)
            return False
        q = n_sub // n_prev
        # np.maximum, not max: a NaN in either component must propagate.
        diff = np.maximum(abs(last[0] - prev[0]), abs(last[1] - prev[1]))
        tol = rtol * max(1.0, abs(last[0]), abs(last[1])) + atol
        # Difference of one halving at n_sub; the factor is exactly 1 for q = 2.
        estimate = diff * (15.0 / (q**4 - 1))
        self.attempts.append((n_sub, float(estimate / tol)))
        if estimate < tol and (q == 2 or _fourth_order(self.first, diff, q)):
            return True
        # A NaN difference compares false and keeps doubling.
        if q == 2 and self.halving is not None and diff >= self.halving:
            raise ToleranceUnreachable(
                f"difference {float(diff):.3e} at n_sub {n_sub} did not shrink from "
                f"{float(self.halving):.3e} at n_sub {n_prev}; rounding error is above "
                f"the tolerance {tol:.3e}"
            )
        self.halving = diff if q == 2 else None
        n_next = 2 * n_sub
        if self.first is None:
            self.first = diff
            r = diff / tol
            if math.isfinite(r):
                # At most 2^5 per jump: beyond that the n^-4 extrapolation
                # spans more than six decades of error.
                j = min(5, max(1, math.ceil(math.log2(r) / 4)))
                n_next = n_sub << j
                # Land on the last count doubling could run, so that
                # StepUnderflow is raised where doubling raises it.
                while n_next > 2 * n_sub and n_next * self.built_rows > MAX_PASS_SUBSTEPS:
                    n_next //= 2
        self._ask(n_next)
        return False


def _chunk_runs(rows: int, n_sub: int) -> int:
    """Runs whose pass is built at once, for ``rows`` built rows: their
    coupling samples of one block within ``_CHUNK_SUBSTEPS`` and their
    interval propagators within ``_CHUNK_INTERVALS``."""
    width = min(n_sub, _BLOCK_SUBSTEPS)
    block = width * min(max(1, _BLOCK_SUBSTEPS // n_sub), rows)
    return max(1, min(_CHUNK_SUBSTEPS // block, _CHUNK_INTERVALS // rows))


def _propagate(runs, grid, init: InitialState, rtol: float, atol: float, last_only: bool) -> list:
    """The controller of :func:`evolve` for B independent runs on one grid.

    Each run has its own controller and is accepted by itself. The pending
    runs that ask for the same ``n_sub`` (and build the same rows of step
    matrices) share one pass, built for chunks of them at a time
    (:func:`_chunk_runs`); a run leaves the batch when it is accepted or
    fails. Only the chunk's intervals of the current pass are held; their
    last states (:func:`_expand_last`) are what the controllers compare.
    An accepted run is expanded on the whole grid, or with ``last_only``
    keeps the last state its pass was compared by.

    Returns one entry per run: its Trajectory or the NumericalError it
    fails with.
    """
    _require_finite("Integrator", rtol=rtol, atol=atol)
    _require_positive("Integrator", rtol=rtol, atol=atol)
    grid, h_out = uniform_grid(grid)
    start = _start(init)
    rows = len(grid) - 1
    results: list = [None] * len(runs)
    pending: dict[int, _Controller] = {}
    # Overflowing field values raise no warning: they fail by name.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (params, field) in enumerate(runs):
            try:
                rate = _characteristic_rate(params, field, grid)
                pending[j] = _Controller(h_out * rate / _INITIAL_RADIANS_PER_STEP,
                                         _built_rows(field, rows))
            except NumericalError as exc:
                results[j] = exc
        while pending:
            passes: dict[tuple[int, int], list[int]] = {}
            for j, controller in pending.items():
                key = (controller.n_sub, controller.built_rows)
                passes.setdefault(key, []).append(j)
            for (n_sub, built_rows), members in passes.items():
                size = _chunk_runs(built_rows, n_sub)
                for chunk in (members[i:i + size] for i in range(0, len(members), size)):
                    intervals = _build_pass([runs[j] for j in chunk], grid, n_sub)
                    last = _expand_last(intervals, start)
                    for i, j in enumerate(chunk):
                        try:
                            if not pending[j].accepts(last[:, i], rtol, atol):
                                continue
                        except NumericalError as exc:
                            results[j] = exc
                        else:
                            results[j] = _trajectory(
                                grid[-1:] if last_only else grid,
                                last[:, i:i + 1] if last_only
                                else _expand(intervals[:, :, i], start),
                                n_sub, pending[j].attempts,
                            )
                        del pending[j]
                    # The intervals of a chunk's pass are released before
                    # the next pass is built.
                    del intervals
    return results


def evolve(
    params: SystemParams,
    field: FieldModel,
    grid: np.ndarray,
    init: InitialState = DEFAULT_INIT,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Trajectory:
    """Integrate the amplitude equations on ``grid`` to the given tolerance:
    :func:`final_states`' controller on a batch of one run, expanded on the
    whole grid.

    The substep count per output interval starts at ``n0``, which puts
    0.2 rad of the fastest rate on the grid in one substep; the chirp rate
    counts there only as far as the coupling it turns is on (see
    :func:`_characteristic_rate`). A pass with ``n`` substeps is accepted
    when its last-point amplitudes differ from the pass with ``n / 2`` by
    less than ``rtol * max(1, |c|) + atol``; the finer result is returned.

    Rather than doubling through every coarse pass, the controller predicts
    the accepted count from the first pair (``n0``, ``2 n0``): RK4's
    difference falls 16x per doubling, so with ``r`` = difference / tol it
    jumps to ``N = 2 n0 2^j``, ``j = ceil(log2(r) / 4)``. The jumped pass
    is accepted when its difference from ``2 n0``, rescaled to one halving
    by ``15 / (q^4 - 1)`` with ``q = N / (2 n0)``, is below tol and the
    three passes show fourth-order convergence; otherwise plain doubling
    continues from ``N``. ``N`` stays a power-of-two multiple of ``n0``,
    lowered to the last one doubling could run under ``MAX_PASS_SUBSTEPS``,
    so a right prediction accepts the same pass doubling would. A
    non-finite pair difference takes the doubling path. The returned
    ``attempts`` records every pass.

    Raises
    ------
    ValidationError
        For an unknown initial state, a tolerance that is not positive
        and finite, or a grid that is not uniform.
    ToleranceUnreachable
        If a halving of the substep, from one pass to the next, does not
        shrink the difference of the last point: rounding error has
        overtaken truncation error above the tolerance.
    StepUnderflow
        If the controller would ask for a pass of more than
        ``MAX_PASS_SUBSTEPS`` substeps: ``n_sub`` for each row of step
        matrices the pass builds, one row for a time-independent coupling
        and every output interval otherwise.
    NonFiniteValue
        If the fastest rate on the grid overflows.
    """
    (traj,) = _propagate(((params, field),), grid, init, rtol, atol, last_only=False)
    if isinstance(traj, NumericalError):
        raise traj
    return traj


def final_states(
    runs,
    grid: np.ndarray,
    init: InitialState = DEFAULT_INIT,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list:
    """The last states of B independent runs on one grid, integrated to the
    given tolerance by :func:`evolve`'s controller.

    ``runs`` is a sequence of (SystemParams, FieldModel) pairs. Returns one
    entry per run, in order: a Trajectory on ``grid[-1:]``, or the
    NumericalError the run fails with. Each entry is bitwise what
    :func:`evolve` gives for the run alone at the last grid point, with the
    same ``n_sub`` and ``attempts``, or the same error. No states of the
    other grid points are formed.

    Raises
    ------
    ValidationError
        For an unknown initial state, a tolerance that is not positive
        and finite, or a grid that is not uniform. A run's
        NumericalError is its entry, not raised: a StepUnderflow from the
        pass limit of :func:`evolve` among them.
    """
    return _propagate(runs, grid, init, rtol, atol, last_only=True)


def rabi_oracle(omega0: float, t: float) -> tuple[float, float]:
    """Closed-form resonant undamped populations: p_e = sin^2(omega0 t / 2)."""
    _require_finite("rabi_oracle", omega0=omega0, t=t)
    _require_positive("rabi_oracle", omega0=omega0)
    phase = 0.5 * omega0 * t
    _require_finite("rabi_oracle", **{"omega0*t/2": phase})
    p_e = math.sin(phase) ** 2
    return 1.0 - p_e, p_e


def _require_sweep_rate(owner: str, sweep_rate: float) -> None:
    """Reject a Landau-Zener sweep rate that is not finite and nonzero."""
    _require_finite(owner, sweep_rate=sweep_rate)
    if sweep_rate == 0:
        raise ValidationError(f"{owner}.sweep_rate must be nonzero, got {sweep_rate}")


def lz_oracle(coupling: float, sweep_rate: float) -> float:
    """Diabatic survival probability exp(-2 pi V^2 / |alpha|) for a linear
    sweep of the level gap at rate alpha and off-diagonal coupling V."""
    _require_finite("lz_oracle", coupling=coupling)
    _require_sweep_rate("lz_oracle", sweep_rate)
    return math.exp(-2.0 * math.pi * coupling * coupling / abs(sweep_rate))


@dataclass(frozen=True)
class _FlatTopEnvelope:
    """Constant coupling with smoothstep ramps to zero at the window edges.

    Module-private: a vanishing envelope has no logarithmic derivative, so
    this shape cannot feed the dressed-state pipeline and is not part of
    the scenario schema. It exists solely to switch the sweep coupling on
    and off adiabatically, which removes the diabatic-basis interference
    beat a hard window edge would imprint on the survival reading.
    """

    omega0: float
    window: float
    kind = "flat-top"
    t_center = 0.0
    #: Share of each window half taken by the ramp.
    RAMP_FRACTION = 0.25

    def omega(self, t):
        x = (self.window - np.abs(np.asarray(t, dtype=float))) / (self.RAMP_FRACTION * self.window)
        x = np.minimum(np.maximum(x, 0.0), 1.0)
        # Quintic smoothstep: C2 at both ends.
        return self.omega0 * (x * x * x) * (10.0 - 15.0 * x + 6.0 * x * x)


def lz_survivals(couplings, sweep_rate: float) -> list[float]:
    """Asymptotic diabatic survival probabilities from finite-window sweeps,
    one per coupling, integrated as one batch of :func:`final_states`.

    A resonant carrier with a linear chirp at rate ``-sweep_rate`` realizes
    the linear-sweep crossing over [-window, window], with window
    ``LZ_WINDOW_SCALE / sqrt(|sweep_rate|)``. With the coupling held
    abruptly at its full value the finite-window reading carries an
    interference transient with a 1 / window envelope, far above the
    accuracy of the integration itself, so the coupling is instead ramped
    smoothly to zero over the outer quarter of each window half. The
    crossing region still sees the constant coupling, the edges carry no
    beat (the bases coincide where the coupling vanishes), and the endpoint
    ground population converges to the asymptotic survival.

    Each run integrates the half sweep [0, window] only, to ``LZ_RTOL`` and
    ``LZ_ATOL``, and rebuilds the full one from its time symmetry. The
    carrier is resonant (delta = 0), the system undamped, the envelope even
    and the chirp centred at 0 with phi0 = 0, so the rotating-frame
    generator A = [[0, i k], [i k*, 0]] has A(-t) = A(t), tr A = 0 and
    sigma_x A* sigma_x = -A. Then V = U(window, 0) lies in SU(2), the first
    half is U(0, -window) = sigma_x V^T sigma_x, and the full sweep's
    amplitude is <g|U(window, -window)|g> = |V_gg|^2 - |V_eg|^2. The
    survival is its square, with V_gg and V_eg the amplitudes at the window
    edge of a ground start at t = 0. Either sign of ``sweep_rate`` keeps
    the chirp even; the mirrored sweep conjugates the coupling, so it gives
    conj c_g, -conj c_e and the same survival.
    """
    _require_sweep_rate("lz_survivals", sweep_rate)
    for coupling in couplings:
        _require_finite("lz_survivals", coupling=coupling)
        _require_positive("lz_survivals", coupling=coupling)
    window = LZ_WINDOW_SCALE / math.sqrt(abs(sweep_rate))
    # Each run carries its coupling on mu over one unit flat-top envelope,
    # so the runs share their coupling samples.
    field = FieldModel(carrier_omega=1.0, phase=Chirp(beta=-sweep_rate, t_center=0.0),
                       envelope=_FlatTopEnvelope(1.0, window))
    runs = [(SystemParams(omega_g=0.0, omega_e=1.0, mu=2.0 * coupling), field)
            for coupling in couplings]
    grid = np.linspace(0.0, window, 201)
    survivals = []
    for traj in final_states(runs, grid, rtol=LZ_RTOL, atol=LZ_ATOL):
        if isinstance(traj, NumericalError):
            raise traj
        survivals.append(float((abs(traj.c_g[-1]) ** 2 - abs(traj.c_e[-1]) ** 2) ** 2))
    return survivals
