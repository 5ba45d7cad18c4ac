"""Named runtime checks of the library's physical and numerical invariants.

Every check has one shape: it computes its measurement (deviations per
grid point, per draw or per run), ``_reduce`` takes the worst of them, and
``_result`` compares that worst value with the check's bound and builds the
CheckResult. A NaN anywhere in a measurement makes the worst value NaN,
and a NaN never passes. ``run_all`` executes the full suite against the
shipped scenarios plus synthetic draws. The eight checks of dressed-state
series are each one ``_SeriesCheck``, a per-series measurement and its
reduction; ``run_all`` builds the shipped series one at a time, has every
series check measure it and drops it before building the next, so the
suite never holds more than one of them. The series checks accept their
series as arguments so tests can aim them at deliberately corrupted data
and watch them fail by name; the seeded checks draw from fixed
SplitMix64 streams.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .field_model import (
    DEFAULT_INIT,
    Chirp,
    ConstantEnvelope,
    FieldModel,
    GaussianEnvelope,
    SechEnvelope,
    SystemParams,
)
from .errors import NumericalError
from .nads_core import SnapshotSeries, snapshot_batch, snapshot_series
from .overlap_transitions import (
    eg_overlap,
    ge_overlap,
    mixing_probability,
    norms,
    p_via_overlaps,
)
from .scenario import list_shipped, load_shipped
from .tdse import evolve, lz_oracle, lz_survivals, rabi_oracle

__all__ = [
    "CheckResult",
    "run_all",
    "check_trig_identity",
    "check_lambda_consistency",
    "check_lambda_tilde_consistency",
    "check_static_reality",
    "check_branch_continuity",
    "check_adiabatic_theorem",
    "check_probability_bound",
    "check_microreversibility",
    "check_cancellation",
    "check_conjugation",
    "check_positivity",
    "check_rabi_pulse",
    "check_norm_conservation",
    "check_decay_law",
    "check_landau_zener",
    "check_derivative_hygiene",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    worst: float
    bound: float
    detail: str

    def as_dict(self) -> dict:
        # Coerce to plain Python types: numpy scalars are not JSON
        # serializable and comparisons against them produce numpy bools.
        return {
            "name": self.name,
            "passed": bool(self.passed),
            # RFC 8259 JSON has no NaN or Infinity tokens.
            "worst": float(self.worst) if math.isfinite(self.worst) else None,
            "bound": float(self.bound),
            "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: worst {self.worst:.3e} "
            f"(bound {self.bound:.3e}) - {self.detail}"
        )


def _reduce(values, start: float = 0.0, pick=np.max) -> float:
    """The largest (``pick=np.min``: smallest) of ``start`` and every element
    of ``values``, an iterable of arrays or numbers; NaN when any of them
    is NaN, which the builtin ``max`` would drop."""
    return float(pick([start, *(pick(value) for value in values)]))


def _result(name: str, worst: float, bound: float, detail: str,
            rule=operator.lt) -> CheckResult:
    """The CheckResult of a measured ``worst``: passed when
    ``rule(worst, bound)`` holds, which it never does for a NaN."""
    worst = float(worst)
    return CheckResult(name, bool(rule(worst, bound)), worst, bound, detail)


class _SeriesCheck(NamedTuple):
    """A check of dressed-state series, measured one series at a time.

    ``measure(series)`` gives a series' deviations, arrays or numbers. The
    worst is ``pick`` of ``start`` and every deviation, and the check
    passes when ``rule(worst, bound)`` holds. A max or min of per-series
    worsts is the worst over them all, so a series can be dropped once it
    is measured. With ``only``, the check measures just the series ``only``
    accepts, fills their count into ``detail`` and fails when there is none.
    """

    name: str
    bound: float
    detail: str
    measure: Callable[[SnapshotSeries], Iterable]
    start: float = 0.0
    pick: Callable = np.max
    rule: Callable[[float, float], bool] = operator.lt
    only: Optional[Callable[[SnapshotSeries], bool]] = None

    def result(self, worst: float, measured: int) -> CheckResult:
        if self.only is None:
            return _result(self.name, worst, self.bound, self.detail, self.rule)
        return _result(self.name, worst, self.bound, self.detail.format(measured),
                       rule=lambda worst, bound: measured > 0 and self.rule(worst, bound))

    def __call__(self, series_list: Sequence[SnapshotSeries]) -> CheckResult:
        return _stream([self], series_list)[0]


def _stream(checks: Sequence[_SeriesCheck], series_iter: Iterable[SnapshotSeries],
            ) -> list[CheckResult]:
    """The result of each of ``checks`` over ``series_iter``, read once:
    every check measures a series before the next one is taken, and the
    loop holds no series while the next is built."""
    worst = [check.start for check in checks]
    measured = [0] * len(checks)
    for series in series_iter:
        for i, check in enumerate(checks):
            if check.only is None or check.only(series):
                worst[i] = _reduce(check.measure(series), worst[i], check.pick)
                measured[i] += 1
        del series
    return [check.result(w, n) for check, w, n in zip(checks, worst, measured)]


def _is_static(s: SnapshotSeries) -> bool:
    """Undamped, unchirped and with a constant envelope."""
    return (s.params.gamma_g == 0.0 and s.params.gamma_e == 0.0
            and s.field.phase.beta == 0.0 and s.field.envelope.kind == "constant")


# cos_half^2 + sin_half^2 = 1 at every grid point.
check_trig_identity = _SeriesCheck(
    "trig_identity", 1e-10, "max |COS^2 + SIN^2 - 1| over all shipped grids",
    lambda s: [np.abs(s.cos_half**2 + s.sin_half**2 - 1.0)],
)
# (Lambda_1 - Lambda_2) reproduces the nonadiabatic Rabi frequency.
check_lambda_consistency = _SeriesCheck(
    "lambda_consistency", 1e-12, "max |(Lambda_1 - Lambda_2) - omega_tilde|",
    lambda s: [np.abs((s.lambda1 - s.lambda2) - s.omega_tilde)],
)
# The derivative shifts cancel in Lambda'_1 - Lambda'_2.
check_lambda_tilde_consistency = _SeriesCheck(
    "lambda_tilde_consistency", 1e-10, "max |(Lambda'_1 - Lambda'_2) - omega_tilde|",
    lambda s: [np.abs((s.lambda_t1 - s.lambda_t2) - s.omega_tilde)],
)
# Undamped unchirped constant-envelope series are real throughout.
check_static_reality = _SeriesCheck(
    "static_reality", 1e-12, "max |Im| over {} static series",
    lambda s: [np.abs(arr.imag)
               for arr in (s.delta_tilde, s.omega_tilde, s.lambda1, s.lambda2,
                           s.lambda_t1, s.lambda_t2, s.cos_half, s.sin_half)],
    only=_is_static,
)
# Consecutive samples stay on the nearer square-root branch.
check_branch_continuity = _SeriesCheck(
    "branch_continuity", 0.0,
    "max |x_{k+1} - x_k| - |x_{k+1} + x_k| (negative = continuous)",
    lambda s: [np.abs(np.diff(arr)) - np.abs(arr[1:] + arr[:-1])
               for arr in (s.omega_tilde, s.cos_half, s.sin_half)],
    start=-math.inf,
)
# Pointwise Eq.-of-motion-free P equals the overlap-quotient P.
check_cancellation = _SeriesCheck(
    "exponential_cancellation", 1e-9, "max |P_pointwise - P_overlap_route|",
    lambda s: [np.abs(mixing_probability(s.sin_half, s.cos_half) - p_via_overlaps(s))],
)
# The mirrored ground-excited overlap is the conjugate of eg.
check_conjugation = _SeriesCheck(
    "overlap_conjugation", 1e-12, "max |<G|E> - conj(<E|G>)|",
    lambda s: [np.abs(ge_overlap(s) - np.conj(eg_overlap(s)))],
)
# Both dressed-state norms squared stay strictly positive.
check_positivity = _SeriesCheck(
    "norm_positivity", 0.0, "smallest gg or ee over all shipped grids (must stay > 0)",
    lambda s: norms(s),  # resolved at call time, like the other callees
    start=math.inf, pick=np.min, rule=operator.gt,
)


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of SplitMix64 (Steele, Lea and Flood,
    OOPSLA 2014) from state ``seed``: the mix of ``seed + k * golden`` for
    the counters k = 1 ... count, computed in place on a ``uint64`` array
    (and one scratch array), whose products wrap modulo 2**64 without a
    warning."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15
    z += seed
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, shift, out=shifted)
        z *= multiplier
    z ^= np.right_shift(z, 31, out=shifted)
    return z


def _uniform(seed: int, low, high, shape) -> np.ndarray:
    """Draws uniform on [low, high) in an array of ``shape``: output k of
    SplitMix64 stream ``seed`` fills element k - 1 in C order, its top 53
    bits scaled to the range. ``low`` and ``high`` are numbers or arrays
    that broadcast against ``shape``. A few in-place NumPy passes make the
    outputs, several times faster than stdlib ``random.Random.randbytes``,
    and without ``numpy.random``, whose import adds about 5 ms to a first
    pass."""
    bits = _splitmix64(seed, math.prod(shape)) >> 11
    return low + (high - low) * (bits * 2.0**-53).reshape(shape)


def check_adiabatic_theorem() -> CheckResult:
    """P vanishes for random static undamped unchirped detuned systems,
    evaluated as one batch of series."""
    draws = 10
    runs = []
    for omega0, size, sign in _uniform(2026, np.array([0.1, 0.2, 0.0]),
                                       np.array([4.0, 5.0, 1.0]), (draws, 3)).tolist():
        delta = size * (1 if sign < 0.5 else -1)
        omega_e = 6.0
        carrier = omega_e - delta
        params = SystemParams(omega_g=0.0, omega_e=omega_e)
        runs.append((params, FieldModel(carrier_omega=carrier,
                                        envelope=ConstantEnvelope(omega0))))
    probabilities = []
    for series in snapshot_batch(runs, np.linspace(0.0, 5.0, 11)):
        if isinstance(series, NumericalError):
            raise series
        probabilities.append(mixing_probability(series.sin_half, series.cos_half))
    return _result("adiabatic_theorem", _reduce(probabilities), 1e-12,
                   f"max P over {draws} random static scenarios")


def check_probability_bound() -> CheckResult:
    """0 <= P <= 1 for fuzzed complex mixing pairs across 6 decades."""
    draws = 10_000
    # One draw: its first 2 * draws values are the decimal exponents of
    # the magnitudes, the rest the angles, each a contiguous (draws, 2).
    exponent, ang = _uniform(2027, np.array([-3.0, 0.0])[:, None, None],
                             np.array([3.0, 2.0 * math.pi])[:, None, None], (2, draws, 2))
    pairs = 10.0 ** exponent * (np.cos(ang) + 1j * np.sin(ang))
    p = mixing_probability(pairs[:, 0], pairs[:, 1])
    return _result("probability_bound", _reduce([np.maximum(-p, p - 1.0)]), 0.0,
                   f"max excursion outside [0, 1] over {draws} fuzzed pairs",
                   rule=operator.le)


def check_microreversibility() -> CheckResult:
    """Forward and reverse transition probabilities agree exactly."""
    draws = 10_000
    # Each row (Re s, Im s, Re c, Im c) read as two complex numbers.
    s, c = _uniform(2028, -1.0, 1.0, (draws, 4)).view(complex).T
    worst = _reduce([np.abs(mixing_probability(s, c) - mixing_probability(c, s))])
    return _result("microreversibility", worst, 0.0,
                   f"max |P_forward - P_reverse| over {draws} fuzzed pairs, "
                   "parts uniform on [-1, 1)",
                   rule=operator.eq)


def _constant_run(carrier: float, omega0: float, grid: np.ndarray,
                  init: str = DEFAULT_INIT, gamma_e: float = 0.0):
    """Rotating-frame evolution of the omega_e = 5 system under a constant
    envelope, the run each ``evolve`` check compares with its oracle."""
    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_e=gamma_e)
    field = FieldModel(carrier_omega=carrier, envelope=ConstantEnvelope(omega0))
    return evolve(params, field, grid, init=init)


def check_rabi_pulse() -> CheckResult:
    """Resonant rotating-frame pi pulse inverts the population."""
    omega0 = 0.2
    t_end = math.pi / omega0
    traj = _constant_run(5.0, omega0, np.linspace(0.0, t_end, 201))
    _, p_e = rabi_oracle(omega0, t_end)
    return _result("rabi_pi_pulse", abs(abs(traj.c_e[-1]) ** 2 - p_e), 1e-8,
                   "final |c_e|^2 error vs closed-form resonant solution")


def check_norm_conservation() -> CheckResult:
    """Undamped evolution keeps |c_g|^2 + |c_e|^2 at one."""
    traj = _constant_run(4.6, 0.3, np.linspace(0.0, 40.0, 401))
    return _result("norm_conservation", _reduce([np.abs(traj.norm - 1.0)]), 1e-8,
                   "max |norm - 1| for an undamped run")


def check_decay_law() -> CheckResult:
    """With negligible field, the excited norm decays at exp(-gamma_e t)."""
    gamma_e = 0.5
    grid = np.linspace(0.0, 2.0, 101)
    traj = _constant_run(5.0, 1e-20, grid, init="excited", gamma_e=gamma_e)
    expected = np.exp(-gamma_e * (grid - grid[0]))
    return _result("field_free_decay", _reduce([np.abs(traj.norm - expected)]), 1e-8,
                   "max |norm - exp(-gamma_e t)| for an excited start")


def check_landau_zener() -> CheckResult:
    """Linear detuning sweeps reproduce the asymptotic survival formula."""
    sweep_rate, couplings = 1.0, (0.1, 0.25, 0.5)
    worst = _reduce(
        abs(survival - lz_oracle(coupling, sweep_rate))
        for coupling, survival in zip(couplings, lz_survivals(couplings, sweep_rate))
    )
    return _result("landau_zener", worst, 1e-3,
                   "survival probability error vs exp(-2 pi V^2 / |alpha|)")


def check_derivative_hygiene() -> CheckResult:
    """Analytic envelope and phase derivatives match finite differences."""
    draws = 1000
    times = _uniform(2029, -8.0, 8.0, (draws,))
    h = 1e-5

    def relative_error(f, exact, floor=1.0):
        """|exact - central difference of f| / max(|exact|, floor) at ``times``."""
        central = (f(times + h) - f(times - h)) / (2 * h)
        return np.abs(exact - central) / np.maximum(np.abs(exact), floor)

    field = FieldModel(
        carrier_omega=3.0,
        envelope=GaussianEnvelope(omega0=2.0, t_center=0.5, tau=7.0),
        phase=Chirp(phi0=0.3, beta=0.02, t_center=1.0),
    )
    errors = [
        relative_error(field.phi, field.dphi(times)),
        relative_error(field.dphi, field.d2phi(times)),
    ]
    for env in (field.envelope, SechEnvelope(omega0=1.3, t_center=-1.0, tau=4.0),
                ConstantEnvelope(omega0=0.7)):
        omega = env.omega(times)
        errors.append(relative_error(env.omega, omega * env.log_deriv(times), np.abs(omega)))
        errors.append(relative_error(env.log_deriv, env.dlog_deriv(times)))
    return _result("derivative_hygiene", _reduce(errors), 1e-6,
                   f"max relative error, analytic vs central difference, {draws} points")


#: Every check, in report order.
_CHECKS = (
    check_trig_identity, check_lambda_consistency, check_lambda_tilde_consistency,
    check_static_reality, check_branch_continuity, check_adiabatic_theorem,
    check_probability_bound, check_microreversibility, check_cancellation,
    check_conjugation, check_positivity, check_rabi_pulse, check_norm_conservation,
    check_decay_law, check_landau_zener, check_derivative_hygiene,
)


def run_all() -> list[CheckResult]:
    """Run every invariant check against the shipped scenarios and synthetic
    draws; deterministic across runs. The shipped series are built,
    measured by every series check and dropped one at a time, so no two
    of them are held at once; the other checks then run in order, each
    looked up by name like the other callees, so a wrapper set on the
    module is the one that runs."""
    shipped = (snapshot_series(s.system, s.field, s.grid())
               for s in map(load_shipped, list_shipped()))
    streamed = iter(_stream([c for c in _CHECKS if isinstance(c, _SeriesCheck)], shipped))
    return [next(streamed) if isinstance(c, _SeriesCheck) else globals()[c.__name__]()
            for c in _CHECKS]
