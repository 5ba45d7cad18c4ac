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

The equations are linear, so one RK4 substep is a 2x2 step matrix. Step
matrices are built elementwise in NumPy, multiplied together per output
interval, and the interval propagators are combined by a prefix product
(Blelloch, "Prefix sums and their applications", 1990) and applied to the
initial state. Substeps are processed in blocks of fixed size, carrying the
state across blocks, so memory does not grow with the grid or ``n_sub``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import StepUnderflow
from .field_model import Chirp, FieldModel, SystemParams
from .nads_core import detuning, uniform_grid
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
    c_g, c_e = c
    omega = params.mu * float(field.envelope.omega(t))
    phi = float(field.phi(t))
    if frame == "lab":
        coupling = -omega * math.cos(field.carrier_omega * t + phi)
        d_g = -1j * (params.omega_g - 0.5j * params.gamma_g) * c_g + 1j * coupling * c_e
        d_e = -1j * (params.omega_e - 0.5j * params.gamma_e) * c_e + 1j * coupling * c_g
        return d_g, d_e
    if frame == "rotating":
        delta = detuning(params, field)
        w = 0.5 * omega * complex(math.cos(phi), math.sin(phi))
        d_g = -0.5 * params.gamma_g * c_g + 1j * w * c_e
        d_e = (-1j * delta - 0.5 * params.gamma_e) * c_e + 1j * w.conjugate() * c_g
        return d_g, d_e
    raise ValueError(f"frame must be 'lab' or 'rotating', got {frame!r}")


def _stage_coupling(
    params: SystemParams,
    field: FieldModel,
    times: np.ndarray,
    frame: Frame,
) -> tuple[np.ndarray, complex, complex]:
    """Coupling k(t) on the stage lattice plus the two diagonal constants."""
    omega = params.mu * field.envelope.omega(times)
    phi = field.phi(times)
    if frame == "lab":
        k = -omega * np.cos(field.carrier_omega * times + phi)
        d1 = -1j * params.omega_g - 0.5 * params.gamma_g
        d2 = -1j * params.omega_e - 0.5 * params.gamma_e
    else:
        k = 0.5 * omega * np.exp(1j * phi)
        delta = detuning(params, field)
        d1 = complex(-0.5 * params.gamma_g)
        d2 = -1j * delta - 0.5 * params.gamma_e
    return k, complex(d1), complex(d2)


# A 2x2 matrix [[a, b], [c, d]] is the tuple (a, b, c, d) of equal-shape
# arrays (or scalars), one matrix per element.
def _mul(p, q):
    """Elementwise matrix product p @ q."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _step_matrices(k0, kh, k1, d1: complex, d2: complex, h: float):
    """RK4 step matrices M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of
    y' = [[d1, i k], [i k*, d2]] y, with k sampled at t, t + h/2, t + h."""

    def system(k):
        return (d1, 1j * k, 1j * np.conj(k), d2)

    def stage(a, s, prev):  # a @ (I + s prev)
        return _mul(a, (1.0 + s * prev[0], s * prev[1], s * prev[2], 1.0 + s * prev[3]))

    k_1 = system(k0)
    a_h = system(kh)
    k_2 = stage(a_h, 0.5 * h, k_1)
    k_3 = stage(a_h, 0.5 * h, k_2)
    k_4 = stage(system(k1), h, k_3)
    sixth = h / 6.0
    return tuple(
        eye + sixth * (w + 2.0 * (x + y) + z)
        for eye, w, x, y, z in zip((1.0, 0.0, 0.0, 1.0), k_1, k_2, k_3, k_4)
    )


def _ordered_product(m):
    """Product M[:, w-1] ... M[:, 1] M[:, 0] along axis 1, pairwise."""
    while m[0].shape[1] > 1:
        w = m[0].shape[1]
        pairs = _mul(
            tuple(x[:, 1:w - w % 2:2] for x in m),
            tuple(x[:, 0:w - w % 2:2] for x in m),
        )
        if w % 2:
            pairs = tuple(np.concatenate((p, x[:, -1:]), axis=1) for p, x in zip(pairs, m))
        m = pairs
    return tuple(x[:, 0] for x in m)


def _prefix_products(m):
    """Inclusive prefix products P[i] = M[i] ... M[0] (Hillis-Steele scan)."""
    shift = 1
    while shift < len(m[0]):
        later = _mul(tuple(x[shift:] for x in m), tuple(x[:-shift] for x in m))
        m = tuple(np.concatenate((x[:shift], p)) for x, p in zip(m, later))
        shift *= 2
    return m


def propagate_fixed(
    params: SystemParams,
    field: FieldModel,
    grid: np.ndarray,
    init: InitialState = "ground",
    frame: Frame = "rotating",
    n_sub: int = 1,
) -> Trajectory:
    """One RK4 pass with exactly ``n_sub`` substeps per output interval.

    Each block holds up to ``_BLOCK_SUBSTEPS`` substeps: whole output
    intervals when ``n_sub`` fits, otherwise consecutive slices of one
    interval whose products are chained.
    """
    if frame not in ("lab", "rotating"):
        raise ValueError(f"frame must be 'lab' or 'rotating', got {frame!r}")
    if init not in ("ground", "excited"):
        raise ValueError(f"init must be 'ground' or 'excited', got {init!r}")
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    grid, h_out = uniform_grid(grid)
    n = len(grid)
    h_sub = h_out / n_sub
    out_g = np.zeros(n, dtype=complex)
    out_e = np.zeros(n, dtype=complex)
    y_g, y_e = (1.0, 0.0) if init == "ground" else (0.0, 1.0)
    out_g[0], out_e[0] = y_g, y_e
    per_block = max(1, _BLOCK_SUBSTEPS // n_sub)
    width = min(n_sub, _BLOCK_SUBSTEPS)
    for first in range(0, n - 1, per_block):
        rows = min(per_block, n - 1 - first)
        interval = None
        for offset in range(0, n_sub, width):
            w = min(width, n_sub - offset)
            j0 = first * n_sub + offset  # first substep of this slice
            lattice = grid[0] + 0.5 * h_sub * np.arange(2 * j0, 2 * (j0 + rows * w) + 1)
            k, d1, d2 = _stage_coupling(params, field, lattice, frame)
            steps = _step_matrices(
                k[:-1:2].reshape(rows, w), k[1::2].reshape(rows, w),
                k[2::2].reshape(rows, w), d1, d2, h_sub,
            )
            part = _ordered_product(steps)
            interval = part if interval is None else _mul(part, interval)
        a, b, c, d = _prefix_products(interval)
        g = a * y_g + b * y_e
        e = c * y_g + d * y_e
        out_g[first + 1:first + 1 + rows] = g
        out_e[first + 1:first + 1 + rows] = e
        y_g, y_e = g[-1], e[-1]
    norm = np.abs(out_g) ** 2 + np.abs(out_e) ** 2
    return Trajectory(grid=grid, c_g=out_g, c_e=out_e, norm=norm,
                      frame=frame, n_sub=n_sub)


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
    StepUnderflow
        If the controller drives the substep below 1e-12 of the span.
    """
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    grid, h_out = uniform_grid(grid)
    span = float(grid[-1] - grid[0])
    rate = _characteristic_rate(params, field, grid, frame)

    def underflows(n_sub: int) -> bool:
        return h_out / n_sub < STEP_UNDERFLOW_FRACTION * span

    def run(n_sub: int) -> Trajectory:
        if underflows(n_sub):
            raise StepUnderflow(
                f"substep {h_out / n_sub:.3e} below "
                f"{STEP_UNDERFLOW_FRACTION:.0e} of span {span:.3e}"
            )
        return propagate_fixed(params, field, grid, init, frame, n_sub)

    n_prev = max(1, math.ceil(h_out * rate / _INITIAL_RADIANS_PER_STEP))
    prev = run(n_prev)
    attempts: list[tuple[int, Optional[float]]] = [(n_prev, None)]
    n_sub = 2 * n_prev
    first = None  # difference of the first pair
    while True:
        cur = run(n_sub)
        q = n_sub // n_prev
        # np.maximum, not max: a NaN in either component must propagate.
        diff = np.maximum(abs(cur.c_g[-1] - prev.c_g[-1]), abs(cur.c_e[-1] - prev.c_e[-1]))
        tol = rtol * max(1.0, abs(cur.c_g[-1]), abs(cur.c_e[-1])) + atol
        # Difference of one halving at n_sub; the factor is exactly 1 for q = 2.
        estimate = diff * (15.0 / (q**4 - 1))
        attempts.append((n_sub, float(estimate / tol)))
        if estimate < tol and (q == 2 or _fourth_order(first, diff, q)):
            cur.attempts = tuple(attempts)
            return cur
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
        prev, n_prev, n_sub = cur, n_sub, n_next


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


def lz_survival(
    coupling: float,
    sweep_rate: float,
    window: Optional[float] = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
) -> float:
    """Asymptotic diabatic survival probability from a finite-window sweep.

    A resonant carrier with a linear chirp at rate ``-sweep_rate`` realizes
    the linear-sweep crossing; the run covers [-window, window] (default
    window 40 / sqrt(|sweep_rate|)). With the coupling held abruptly at its
    full value the finite-window reading carries an interference transient
    with a 1 / window envelope, far above the accuracy of the integration
    itself, so the coupling is instead ramped smoothly to zero over the
    outer quarter of each window half. The crossing region still sees the
    constant coupling, the edges carry no beat (the bases coincide where
    the coupling vanishes), and the endpoint ground population converges
    to the asymptotic survival.
    """
    if sweep_rate == 0:
        raise ValueError("sweep_rate must be nonzero")
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    sweep_rate = abs(sweep_rate)
    if window is None:
        window = 40.0 / math.sqrt(sweep_rate)
    if window <= 0:
        raise ValueError("window must be positive")
    params = SystemParams(omega_g=0.0, omega_e=1.0)
    field = FieldModel(
        carrier_omega=1.0,
        envelope=_FlatTopEnvelope(2.0 * coupling, window),
        phase=Chirp(beta=-sweep_rate, t_center=0.0),
    )
    grid = np.linspace(-window, window, 401)
    traj = evolve(params, field, grid, init="ground", frame="rotating",
                  rtol=rtol, atol=atol)
    return float(abs(traj.c_g[-1]) ** 2)
