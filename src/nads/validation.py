"""Named runtime checks of the library's physical and numerical invariants.

Every check has one shape: it computes its measurement (deviations per
grid point, per draw or per run), ``_reduce`` takes the worst of them, and
``_result`` compares that worst value with the check's bound and builds the
CheckResult. A NaN anywhere in a measurement makes the worst value NaN,
and a NaN never passes. ``run_all`` executes the full suite against the
shipped scenarios plus synthetic draws. The checks accept their inputs as
arguments so tests can aim them at deliberately corrupted data and watch
them fail by name.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field_model import (
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


def check_trig_identity(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """cos_half^2 + sin_half^2 = 1 at every grid point."""
    worst = _reduce(np.abs(s.cos_half**2 + s.sin_half**2 - 1.0) for s in series_list)
    return _result("trig_identity", worst, 1e-10,
                   "max |COS^2 + SIN^2 - 1| over all shipped grids")


def check_lambda_consistency(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """(Lambda_1 - Lambda_2) reproduces the nonadiabatic Rabi frequency."""
    worst = _reduce(np.abs((s.lambda1 - s.lambda2) - s.omega_tilde) for s in series_list)
    return _result("lambda_consistency", worst, 1e-12,
                   "max |(Lambda_1 - Lambda_2) - omega_tilde|")


def check_lambda_tilde_consistency(
    series_list: Sequence[SnapshotSeries],
) -> CheckResult:
    """The derivative shifts cancel in Lambda'_1 - Lambda'_2."""
    worst = _reduce(
        np.abs((s.lambda_t1 - s.lambda_t2) - s.omega_tilde) for s in series_list
    )
    return _result("lambda_tilde_consistency", worst, 1e-10,
                   "max |(Lambda'_1 - Lambda'_2) - omega_tilde|")


def check_static_reality(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Undamped unchirped constant-envelope series are real throughout."""
    static = [
        s for s in series_list
        if s.params.gamma_g == 0.0 and s.params.gamma_e == 0.0
        and s.field.phase.beta == 0.0 and s.field.envelope.kind == "constant"
    ]
    worst = _reduce(
        np.abs(arr.imag)
        for s in static
        for arr in (s.delta_tilde, s.omega_tilde, s.lambda1, s.lambda2,
                    s.lambda_t1, s.lambda_t2, s.cos_half, s.sin_half)
    )
    return _result("static_reality", worst, 1e-12,
                   f"max |Im| over {len(static)} static series",
                   rule=lambda worst, bound: bool(static) and worst < bound)


def check_branch_continuity(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Consecutive samples stay on the nearer square-root branch."""
    margins = (
        np.abs(np.diff(arr)) - np.abs(arr[1:] + arr[:-1])
        for s in series_list for arr in (s.omega_tilde, s.cos_half, s.sin_half)
    )
    return _result("branch_continuity", _reduce(margins, start=-math.inf), 0.0,
                   "max |x_{k+1} - x_k| - |x_{k+1} + x_k| (negative = continuous)")


def _uniform(rng: random.Random, low: float, high: float, shape) -> np.ndarray:
    """Draws uniform on [low, high) in an array of ``shape``, 53 random bits
    each. The seeded checks draw from stdlib ``random``, which NumPy has
    already imported: importing ``numpy.random`` takes about 5 ms, a fifth
    of a warm ``nads validate``."""
    bits = np.frombuffer(rng.randbytes(8 * math.prod(shape)), "<u8") >> 11
    return low + (high - low) * (bits * 2.0**-53).reshape(shape)


def check_adiabatic_theorem(seed: int = 2026, draws: int = 10) -> CheckResult:
    """P vanishes for random static undamped unchirped detuned systems,
    evaluated as one batch of series."""
    rng = random.Random(seed)
    runs = []
    for _ in range(draws):
        omega0 = rng.uniform(0.1, 4.0)
        delta = rng.uniform(0.2, 5.0) * (1 if rng.random() < 0.5 else -1)
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


def check_probability_bound(seed: int = 2027, draws: int = 10_000) -> CheckResult:
    """0 <= P <= 1 for fuzzed complex mixing pairs across 6 decades."""
    rng = random.Random(seed)
    mag = 10.0 ** _uniform(rng, -3.0, 3.0, (draws, 2))
    ang = _uniform(rng, 0.0, 2.0 * math.pi, (draws, 2))
    pairs = mag * (np.cos(ang) + 1j * np.sin(ang))
    p = mixing_probability(pairs[:, 0], pairs[:, 1])
    return _result("probability_bound", _reduce([np.maximum(-p, p - 1.0)]), 0.0,
                   f"max excursion outside [0, 1] over {draws} fuzzed pairs",
                   rule=operator.le)


def check_microreversibility(seed: int = 2028, draws: int = 10_000) -> CheckResult:
    """Forward and reverse transition probabilities agree exactly."""
    values = _uniform(random.Random(seed), -1.0, 1.0, (draws, 4))
    s = values[:, 0] + 1j * values[:, 1]
    c = values[:, 2] + 1j * values[:, 3]
    worst = _reduce([np.abs(mixing_probability(s, c) - mixing_probability(c, s))])
    return _result("microreversibility", worst, 0.0,
                   f"max |P_forward - P_reverse| over {draws} fuzzed pairs, "
                   "parts uniform on [-1, 1)",
                   rule=operator.eq)


def check_cancellation(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Pointwise Eq.-of-motion-free P equals the overlap-quotient P."""
    worst = _reduce(
        np.abs(mixing_probability(s.sin_half, s.cos_half) - p_via_overlaps(s))
        for s in series_list
    )
    return _result("exponential_cancellation", worst, 1e-9,
                   "max |P_pointwise - P_overlap_route|")


def check_conjugation(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """The mirrored ground-excited overlap is the conjugate of eg."""
    worst = _reduce(
        np.abs(ge_overlap(s) - np.conj(eg_overlap(s))) for s in series_list
    )
    return _result("overlap_conjugation", worst, 1e-12, "max |<G|E> - conj(<E|G>)|")


def check_positivity(series_list: Sequence[SnapshotSeries]) -> CheckResult:
    """Both dressed-state norms squared stay strictly positive."""
    smallest = _reduce(
        (norm for s in series_list for norm in norms(s)), start=math.inf, pick=np.min
    )
    return _result("norm_positivity", smallest, 0.0,
                   "smallest gg or ee over all shipped grids (must stay > 0)",
                   rule=operator.gt)


def _constant_run(carrier: float, omega0: float, grid: np.ndarray,
                  init: str = "ground", gamma_e: float = 0.0):
    """Rotating-frame evolution of the omega_e = 5 system under a constant
    envelope, the run each ``evolve`` check compares with its oracle."""
    params = SystemParams(omega_g=0.0, omega_e=5.0, gamma_e=gamma_e)
    field = FieldModel(carrier_omega=carrier, envelope=ConstantEnvelope(omega0))
    return evolve(params, field, grid, init=init, frame="rotating")


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


def check_derivative_hygiene(seed: int = 2029, draws: int = 1000) -> CheckResult:
    """Analytic envelope and phase derivatives match finite differences."""
    times = _uniform(random.Random(seed), -8.0, 8.0, (draws,))
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


def _shipped_series() -> list[SnapshotSeries]:
    scenarios = [load_shipped(name) for name in list_shipped()]
    return [snapshot_series(s.system, s.field, s.grid()) for s in scenarios]


def run_all() -> list[CheckResult]:
    """Run every invariant check against shipped scenarios and synthetic
    draws; deterministic across runs."""
    series_list = _shipped_series()
    return [
        check_trig_identity(series_list),
        check_lambda_consistency(series_list),
        check_lambda_tilde_consistency(series_list),
        check_static_reality(series_list),
        check_branch_continuity(series_list),
        check_adiabatic_theorem(),
        check_probability_bound(),
        check_microreversibility(),
        check_cancellation(series_list),
        check_conjugation(series_list),
        check_positivity(series_list),
        check_rabi_pulse(),
        check_norm_conservation(),
        check_decay_law(),
        check_landau_zener(),
        check_derivative_hygiene(),
    ]
